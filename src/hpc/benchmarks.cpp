#include "hpc/benchmark.h"

#include "hpc/kernels.h"

namespace malisim::hpc {

std::string_view VariantName(Variant v) {
  switch (v) {
    case Variant::kSerial:
      return "Serial";
    case Variant::kOpenMP:
      return "OpenMP";
    case Variant::kOpenCL:
      return "OpenCL";
    case Variant::kOpenCLOpt:
      return "OpenCL Opt";
    case Variant::kHetero:
      return "Hetero";
  }
  return "<bad>";
}

std::span<const Variant> LadderFrom(Variant v) {
  const std::span<const Variant> ladder(kDegradationLadder);
  std::size_t i = 0;
  while (i < ladder.size() && ladder[i] != v) ++i;
  return ladder.subspan(i);
}

StatusOr<RunOutcome> Benchmark::RunTuned(const sim::TuningConfig& config,
                                         Devices& devices) {
  (void)config;
  (void)devices;
  return UnimplementedError("benchmark '" + name() +
                            "' declares no tuning surface");
}

StatusOr<std::string> Benchmark::TunedKernelText(
    const sim::TuningConfig& config) const {
  (void)config;
  return UnimplementedError("benchmark '" + name() +
                            "' declares no tuning surface");
}

StatusOr<RunOutcome> Benchmark::RunVariant(Variant variant, Devices& devices) {
  if (variant != Variant::kHetero) return Run(variant, devices);
  if (devices.hetero == nullptr) {
    return FailedPreconditionError(
        "Hetero variant needs a hetero-backend context");
  }
  // The co-execution column runs the optimized OpenCL version; the hetero
  // context's backend splits each NDRange across the Mali and the A15s.
  Devices hetero_devices = devices;
  hetero_devices.gpu = devices.hetero;
  return Run(Variant::kOpenCLOpt, hetero_devices);
}

std::vector<std::string> RegisteredBenchmarks() {
  // Paper figure order (Fig. 2-4 X axes).
  return {"spmv", "vecop", "hist", "3dstc", "red",
          "amcd", "nbody", "2dcon", "dmmm"};
}

std::unique_ptr<Benchmark> CreateBenchmark(const std::string& name,
                                           const ProblemSizes& sizes) {
  if (name == "spmv") return MakeSpmv(sizes);
  if (name == "vecop") return MakeVecop(sizes);
  if (name == "hist") return MakeHist(sizes);
  if (name == "3dstc") return MakeStencil3D(sizes);
  if (name == "red") return MakeReduction(sizes);
  if (name == "amcd") return MakeAmcd(sizes);
  if (name == "nbody") return MakeNbody(sizes);
  if (name == "2dcon") return MakeConv2D(sizes);
  if (name == "dmmm") return MakeDmmm(sizes);
  return nullptr;
}

}  // namespace malisim::hpc
