// Vector Operation (vecop): element-wise c = a + b.
//
// Paper §IV-A: "Given the memory-bound nature of the kernel, this benchmark
// stresses the memory bandwidth of the platform under study."
//
// Versions:
//  * Serial/OpenMP — scalar loop over a contiguous chunk per core.
//  * OpenCL        — one element per work-item, scalar loads, driver-chosen
//                    work-group size.
//  * OpenCL Opt    — §III-B vectorization: float4/double4 vload/vstore, four
//                    elements per work-item, manually tuned work-group size,
//                    restrict/const qualifiers.
#include <vector>

#include "common/prng.h"
#include "hpc/detail.h"
#include "hpc/kernels.h"

namespace malisim::hpc {
namespace {

using detail::FpBuffer;
using kir::ArgKind;
using kir::KernelBuilder;
using kir::Val;

class VecopBenchmark final : public Benchmark {
 public:
  explicit VecopBenchmark(const ProblemSizes& sizes) : n_(sizes.vecop_n) {}

  std::string name() const override { return "vecop"; }
  std::string description() const override {
    return "element-wise vector addition (memory-bandwidth bound)";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    fp64_ = fp64;
    seed_ = seed;
    a_ = FpBuffer(fp64, n_);
    b_ = FpBuffer(fp64, n_);
    ref_.assign(n_, 0.0);
    Xoshiro256 rng(seed);
    for (std::uint32_t i = 0; i < n_; ++i) {
      a_.Set(i, rng.NextDouble(-1.0, 1.0));
      b_.Set(i, rng.NextDouble(-1.0, 1.0));
      ref_[i] = a_.Get(i) + b_.Get(i);
    }
    return Status::Ok();
  }

  StatusOr<RunOutcome> Run(Variant variant, Devices& devices) override {
    switch (variant) {
      case Variant::kSerial:
        return RunCpuVariant(devices, 1);
      case Variant::kOpenMP:
        return RunCpuVariant(devices, 2);
      case Variant::kOpenCL:
        return RunGpuVariant(devices, /*optimized=*/false);
      case Variant::kOpenCLOpt:
        return RunGpuVariant(devices, /*optimized=*/true);
      case Variant::kHetero:
        break;  // resolved by RunVariant; raw dispatch is invalid
    }
    return InvalidArgumentError("bad variant");
  }

  // §III knobs: vector width, work-group size, and the map-vs-copy buffer
  // strategy (§III-A) — vecop is the benchmark where the copy overhead is
  // most visible because the kernel itself is pure bandwidth.
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"vec", {1, 2, 4}},
                  {"wg", {32, 64, 128, 256}},
                  {"copy", {0, 1}}};
    space.valid = [n = n_](const sim::TuningConfig& c) {
      return n % static_cast<std::uint32_t>(c.Get("vec", 1)) == 0;
    };
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("vec", 4);
    config.Set("wg", 128);
    config.Set("copy", 0);
    return config;
  }

  StatusOr<RunOutcome> RunTuned(const sim::TuningConfig& config,
                                Devices& devices) override {
    MALI_CHECK(devices.gpu != nullptr);
    const int vec = static_cast<int>(config.Get("vec", 4));
    const std::uint64_t wg = static_cast<std::uint64_t>(config.Get("wg", 128));
    const bool copy = config.Get("copy", 0) != 0;

    StatusOr<kir::Program> program = BuildGpuTuned(vec);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;
    detail::TunedBufferSet buffers(ctx, copy);

    auto a = buffers.Make(a_.data(), a_.bytes());
    if (!a.ok()) return a.status();
    auto b = buffers.Make(b_.data(), b_.bytes());
    if (!b.ok()) return b.status();
    auto c = buffers.Make(nullptr, a_.bytes());
    if (!c.ok()) return c.status();

    std::vector<kir::Program> kernels;
    kernels.push_back(*std::move(program));
    const std::string kernel_name = kernels.front().name;
    std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(kernels));
    MALI_RETURN_IF_ERROR(prog->Build());
    StatusOr<std::shared_ptr<ocl::Kernel>> kernel =
        ctx.CreateKernel(prog, kernel_name);
    if (!kernel.ok()) return kernel.status();
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(0, *a));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(1, *b));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(2, *c));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.work_dim = 1;
    launch.global[0] = n_ / static_cast<std::uint64_t>(vec);
    const std::uint64_t tuned_local[3] = {
        detail::TunedLocalSize(launch.global[0], wg), 1, 1};
    launch.local = tuned_local;
    StatusOr<RunOutcome> outcome =
        detail::RunGpuLaunches(devices, {&launch, 1});
    if (!outcome.ok()) return outcome;

    FpBuffer result(fp64_, n_);
    MALI_RETURN_IF_ERROR(buffers.Read(**c, result.data(), result.bytes()));
    buffers.ChargeTransfers(&*outcome);
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), 1e-5);
    return outcome;
  }

  StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const override {
    StatusOr<kir::Program> program =
        BuildGpuTuned(static_cast<int>(config.Get("vec", 4)));
    if (!program.ok()) return program.status();
    return kir::ToText(*program);
  }

 private:
  kir::ScalarType ft() const {
    return fp64_ ? kir::ScalarType::kF64 : kir::ScalarType::kF32;
  }

  StatusOr<kir::Program> BuildCpuKernel() const {
    KernelBuilder kb("vecop_cpu");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    detail::Chunk chunk = detail::ThreadChunk(kb, n);
    kb.ParallelFor("i", chunk.start, chunk.end, 1, [&](Val i) {
      kb.Store(c, i, kb.Load(a, i) + kb.Load(b, i));
    });
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) {
    StatusOr<kir::Program> program = BuildCpuKernel();
    if (!program.ok()) return program.status();
    FpBuffer c(fp64_, n_);
    kir::LaunchConfig config;
    config.work_dim = 1;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    config.local_size = {1, 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{a_.data(), a_.bytes()}, {b_.data(), b_.bytes()}, {c.data(), c.bytes()}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(n_))}, threads);
    if (!outcome.ok()) return outcome;
    detail::FinishValidation(&*outcome, detail::MaxRelError(c, ref_), 1e-5);
    return outcome;
  }

  StatusOr<kir::Program> BuildGpuNaive() const {
    KernelBuilder kb("vecop_cl");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO);
    Val gid = kb.GlobalId(0);
    kb.Store(c, gid, kb.Load(a, gid) + kb.Load(b, gid));
    return kb.Build();
  }

  StatusOr<kir::Program> BuildGpuOpt() const {
    KernelBuilder kb("vecop_cl_opt");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO, /*is_restrict=*/true,
                          /*is_const=*/true);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO, true, true);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO, true, false);
    Val gid = kb.GlobalId(0);
    Val base = kb.Binary(kir::Opcode::kMul, gid, kb.ConstI(kir::I32(), 4));
    Val va = kb.Load(a, base, 0, 4);
    Val vb = kb.Load(b, base, 0, 4);
    kb.Store(c, base, va + vb);
    return kb.Build();
  }

  /// The optimized kernel generalized over vector width: vec == 1 is the
  /// naive body plus the §III-C qualifiers, vec > 1 the vloadN/vstoreN form.
  StatusOr<kir::Program> BuildGpuTuned(int vec) const {
    KernelBuilder kb("vecop_cl_tuned");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO, /*is_restrict=*/true,
                          /*is_const=*/true);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO, true, true);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO, true, false);
    Val gid = kb.GlobalId(0);
    if (vec <= 1) {
      kb.Store(c, gid, kb.Load(a, gid) + kb.Load(b, gid));
    } else {
      Val base = kb.Binary(kir::Opcode::kMul, gid, kb.ConstI(kir::I32(), vec));
      const auto lanes = static_cast<std::uint8_t>(vec);
      Val va = kb.Load(a, base, 0, lanes);
      Val vb = kb.Load(b, base, 0, lanes);
      kb.Store(c, base, va + vb);
    }
    return kb.Build();
  }

  StatusOr<RunOutcome> RunGpuVariant(Devices& devices, bool optimized) {
    StatusOr<kir::Program> program =
        optimized ? BuildGpuOpt() : BuildGpuNaive();
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;

    auto a = detail::MakeGpuBuffer(ctx, a_.data(), a_.bytes());
    if (!a.ok()) return a.status();
    auto b = detail::MakeGpuBuffer(ctx, b_.data(), b_.bytes());
    if (!b.ok()) return b.status();
    auto c = detail::MakeGpuBuffer(ctx, nullptr, a_.bytes());
    if (!c.ok()) return c.status();

    std::vector<kir::Program> kernels;
    kernels.push_back(*std::move(program));
    const std::string kernel_name = kernels.front().name;
    std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(kernels));
    MALI_RETURN_IF_ERROR(prog->Build());
    StatusOr<std::shared_ptr<ocl::Kernel>> kernel =
        ctx.CreateKernel(prog, kernel_name);
    if (!kernel.ok()) return kernel.status();
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(0, *a));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(1, *b));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(2, *c));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.work_dim = 1;
    const std::uint64_t tuned_local[3] = {
        detail::TunedLocalSize(n_ / 4, 128), 1, 1};
    if (optimized) {
      launch.global[0] = n_ / 4;
      launch.local = tuned_local;
    } else {
      launch.global[0] = n_;
      launch.local = nullptr;  // §III-A: driver picks the work-group size
    }
    StatusOr<RunOutcome> outcome =
        detail::RunGpuLaunches(devices, {&launch, 1});
    if (!outcome.ok()) return outcome;

    FpBuffer result(fp64_, n_);
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **c, result.data(), result.bytes()));
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), 1e-5);
    return outcome;
  }

  std::uint32_t n_;
  FpBuffer a_, b_;
  std::vector<double> ref_;
};

}  // namespace

std::unique_ptr<Benchmark> MakeVecop(const ProblemSizes& sizes) {
  return std::make_unique<VecopBenchmark>(sizes);
}

}  // namespace malisim::hpc
