// 3D Stencil (3dstc): 7-point stencil over a dim^3 volume.
//
// Paper §IV-A: "useful to evaluate the performance in presence of memory
// accesses with regular strides"; §V-A: "3dstc does not take advantage of
// vector instructions and limits the optimizations to work-group size
// tuning and data reuse".
#include <cmath>
#include <vector>

#include "common/prng.h"
#include "hpc/detail.h"
#include "hpc/kernels.h"

namespace malisim::hpc {
namespace {

using detail::FpBuffer;
using kir::ArgKind;
using kir::KernelBuilder;
using kir::Opcode;
using kir::Val;

constexpr double kC0 = 0.4;   // centre weight
constexpr double kC1 = 0.1;   // each of the six neighbours

class Stencil3DBenchmark final : public Benchmark {
 public:
  explicit Stencil3DBenchmark(const ProblemSizes& sizes)
      : dim_(sizes.stencil_dim) {}

  std::string name() const override { return "3dstc"; }
  std::string description() const override {
    return "7-point 3D stencil (regular strided accesses)";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    fp64_ = fp64;
    seed_ = seed;
    const std::size_t total = Volume();
    in_ = FpBuffer(fp64, total);
    Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < total; ++i) in_.Set(i, rng.NextDouble(-1, 1));

    ref_.assign(total, 0.0);
    const std::size_t d = dim_;
    auto at = [&](std::size_t x, std::size_t y, std::size_t z) {
      return (z * d + y) * d + x;
    };
    for (std::size_t z = 1; z + 1 < d; ++z) {
      for (std::size_t y = 1; y + 1 < d; ++y) {
        for (std::size_t x = 1; x + 1 < d; ++x) {
          ref_[at(x, y, z)] =
              kC0 * in_.Get(at(x, y, z)) +
              kC1 * (in_.Get(at(x - 1, y, z)) + in_.Get(at(x + 1, y, z)) +
                     in_.Get(at(x, y - 1, z)) + in_.Get(at(x, y + 1, z)) +
                     in_.Get(at(x, y, z - 1)) + in_.Get(at(x, y, z + 1)));
        }
      }
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
        return RunGpuVariant(devices, false);
      case Variant::kOpenCLOpt:
        return RunGpuVariant(devices, true);
      case Variant::kHetero:
        break;  // resolved by RunVariant; raw dispatch is invalid
    }
    return InvalidArgumentError("bad variant");
  }

  // §V-A: "3dstc ... limits the optimizations to work-group size tuning and
  // data reuse" — the tunable surface is exactly the 3D work-group shape;
  // the kernel itself is the fixed optimized one.
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"wgx", {16, 32, 64}}, {"wgy", {1, 2, 4}},
                  {"wgz", {1, 2, 4}}};
    space.valid = [](const sim::TuningConfig& c) {
      return c.Get("wgx", 1) * c.Get("wgy", 1) * c.Get("wgz", 1) <=
             static_cast<std::int64_t>(ocl::Context::kMaxWorkGroupSize);
    };
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("wgx", 64);
    config.Set("wgy", 2);
    config.Set("wgz", 2);
    return config;
  }

  StatusOr<RunOutcome> RunTuned(const sim::TuningConfig& config,
                                Devices& devices) override {
    MALI_CHECK(devices.gpu != nullptr);
    StatusOr<kir::Program> program = BuildGpuKernel(/*optimized=*/true);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;
    auto in = detail::MakeGpuBuffer(ctx, in_.data(), in_.bytes());
    if (!in.ok()) return in.status();
    auto out = detail::MakeGpuBuffer(ctx, nullptr, in_.bytes());
    if (!out.ok()) return out.status();

    const std::string kernel_name = program->name;
    std::vector<kir::Program> kernels;
    kernels.push_back(*std::move(program));
    std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(kernels));
    MALI_RETURN_IF_ERROR(prog->Build());
    auto kernel = ctx.CreateKernel(prog, kernel_name);
    if (!kernel.ok()) return kernel.status();
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(0, *in));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(1, *out));
    MALI_RETURN_IF_ERROR(
        (*kernel)->SetArgI32(2, static_cast<std::int32_t>(dim_)));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.work_dim = 3;
    launch.global[0] = dim_;
    launch.global[1] = dim_;
    launch.global[2] = dim_;
    const std::uint64_t tuned_local[3] = {
        detail::TunedLocalSize(
            dim_, static_cast<std::uint64_t>(config.Get("wgx", 64))),
        detail::TunedLocalSize(
            dim_, static_cast<std::uint64_t>(config.Get("wgy", 2))),
        detail::TunedLocalSize(
            dim_, static_cast<std::uint64_t>(config.Get("wgz", 2)))};
    launch.local = tuned_local;
    StatusOr<RunOutcome> outcome = detail::RunGpuLaunches(devices, {&launch, 1});
    if (!outcome.ok()) return outcome;

    FpBuffer result(fp64_, Volume());
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **out, result.data(), result.bytes()));
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), tol());
    return outcome;
  }

  StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const override {
    (void)config;  // every point launches the same optimized kernel
    StatusOr<kir::Program> program = BuildGpuKernel(/*optimized=*/true);
    if (!program.ok()) return program.status();
    return kir::ToText(*program);
  }

 private:
  std::size_t Volume() const {
    return static_cast<std::size_t>(dim_) * dim_ * dim_;
  }
  kir::ScalarType ft() const {
    return fp64_ ? kir::ScalarType::kF64 : kir::ScalarType::kF32;
  }
  double tol() const { return fp64_ ? 1e-12 : 1e-5; }

  /// Emits the 7-point update for point (x, y, z); idx = (z*d + y)*d + x.
  void EmitPoint(KernelBuilder& kb, kir::BufferRef in, kir::BufferRef out,
                 Val x, Val y, Val z, Val d, Val d2, Val c0, Val c1) const {
    Val idx = kb.Binary(
        Opcode::kAdd,
        kb.Binary(Opcode::kAdd, kb.Binary(Opcode::kMul, z, d2),
                  kb.Binary(Opcode::kMul, y, d)),
        x);
    Val centre = kb.Load(in, idx);
    Val sum = kb.Load(in, idx, -1) + kb.Load(in, idx, +1);
    // d and d2 strides as immediate offsets are not possible (they are
    // runtime values), so neighbour indices are computed explicitly.
    Val up = kb.Binary(Opcode::kSub, idx, d);
    Val down = kb.Binary(Opcode::kAdd, idx, d);
    Val back = kb.Binary(Opcode::kSub, idx, d2);
    Val front = kb.Binary(Opcode::kAdd, idx, d2);
    sum = sum + kb.Load(in, up) + kb.Load(in, down);
    sum = sum + kb.Load(in, back) + kb.Load(in, front);
    kb.Store(out, idx, kb.Fma(c0, centre, c1 * sum));
  }

  StatusOr<kir::Program> BuildCpuKernel() const {
    KernelBuilder kb("3dstc_cpu");
    auto in = kb.ArgBuffer("in", ft(), ArgKind::kBufferRO);
    auto out = kb.ArgBuffer("out", ft(), ArgKind::kBufferWO);
    Val d = kb.ArgScalar("d", kir::ScalarType::kI32);
    Val one = kb.ConstI(kir::I32(), 1);
    Val d2 = kb.Binary(Opcode::kMul, d, d);
    Val dm1 = kb.Binary(Opcode::kSub, d, one);
    Val c0 = detail::FConst(kb, fp64_, kC0);
    Val c1 = detail::FConst(kb, fp64_, kC1);
    // Chunk interior z planes across threads.
    Val interior = kb.Binary(Opcode::kSub, d, kb.ConstI(kir::I32(), 2));
    detail::Chunk chunk = detail::ThreadChunk(kb, interior);
    Val z_start = kb.Binary(Opcode::kAdd, chunk.start, one);
    Val z_end = kb.Binary(Opcode::kAdd, chunk.end, one);
    kb.For("z", z_start, z_end, 1, [&](Val z) {
      kb.For("y", one, dm1, 1, [&](Val y) {
        kb.ParallelFor("x", one, dm1, 1, [&](Val x) {
          EmitPoint(kb, in, out, x, y, z, d, d2, c0, c1);
        });
      });
    });
    return kb.Build();
  }

  StatusOr<kir::Program> BuildGpuKernel(bool optimized) const {
    KernelBuilder kb(optimized ? "3dstc_cl_opt" : "3dstc_cl");
    auto in = kb.ArgBuffer("in", ft(), ArgKind::kBufferRO, optimized, optimized);
    auto out = kb.ArgBuffer("out", ft(), ArgKind::kBufferWO, optimized, false);
    Val d = kb.ArgScalar("d", kir::ScalarType::kI32);
    Val one = kb.ConstI(kir::I32(), 1);
    Val d2 = kb.Binary(Opcode::kMul, d, d);
    Val dm1 = kb.Binary(Opcode::kSub, d, one);
    Val c0 = detail::FConst(kb, fp64_, kC0);
    Val c1 = detail::FConst(kb, fp64_, kC1);
    // Global size is the padded dim^3 (a "nice" multiple for the NDRange);
    // the kernel masks out the boundary — standard OpenCL stencil practice.
    Val x = kb.GlobalId(0);
    Val y = kb.GlobalId(1);
    Val z = kb.GlobalId(2);
    Val inside = kb.CmpGe(x, one) & kb.CmpLt(x, dm1) & kb.CmpGe(y, one) &
                 kb.CmpLt(y, dm1) & kb.CmpGe(z, one) & kb.CmpLt(z, dm1);
    kb.If(inside, [&] { EmitPoint(kb, in, out, x, y, z, d, d2, c0, c1); });
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) {
    StatusOr<kir::Program> program = BuildCpuKernel();
    if (!program.ok()) return program.status();
    FpBuffer out(fp64_, Volume());
    kir::LaunchConfig config;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{in_.data(), in_.bytes()}, {out.data(), out.bytes()}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(dim_))}, threads);
    if (!outcome.ok()) return outcome;
    detail::FinishValidation(&*outcome, detail::MaxRelError(out, ref_), tol());
    return outcome;
  }

  StatusOr<RunOutcome> RunGpuVariant(Devices& devices, bool optimized) {
    StatusOr<kir::Program> program = BuildGpuKernel(optimized);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;
    auto in = detail::MakeGpuBuffer(ctx, in_.data(), in_.bytes());
    if (!in.ok()) return in.status();
    auto out = detail::MakeGpuBuffer(ctx, nullptr, in_.bytes());
    if (!out.ok()) return out.status();

    const std::string kernel_name = program->name;
    std::vector<kir::Program> kernels;
    kernels.push_back(*std::move(program));
    std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(kernels));
    MALI_RETURN_IF_ERROR(prog->Build());
    auto kernel = ctx.CreateKernel(prog, kernel_name);
    if (!kernel.ok()) return kernel.status();
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(0, *in));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(1, *out));
    MALI_RETURN_IF_ERROR(
        (*kernel)->SetArgI32(2, static_cast<std::int32_t>(dim_)));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.work_dim = 3;
    launch.global[0] = dim_;
    launch.global[1] = dim_;
    launch.global[2] = dim_;
    // Opt: a flat 64x2x2 block walks x fastest -> line reuse in L1 across
    // the y/z neighbours of the same block (§V-A "data reuse").
    const std::uint64_t tuned_local[3] = {
        detail::TunedLocalSize(dim_, 64), detail::TunedLocalSize(dim_, 2),
        detail::TunedLocalSize(dim_, 2)};
    launch.local = optimized ? tuned_local : nullptr;
    StatusOr<RunOutcome> outcome = detail::RunGpuLaunches(devices, {&launch, 1});
    if (!outcome.ok()) return outcome;

    FpBuffer result(fp64_, Volume());
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **out, result.data(), result.bytes()));
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), tol());
    return outcome;
  }

  std::uint32_t dim_;
  FpBuffer in_;
  std::vector<double> ref_;
};

}  // namespace

std::unique_ptr<Benchmark> MakeStencil3D(const ProblemSizes& sizes) {
  return std::make_unique<Stencil3DBenchmark>(sizes);
}

}  // namespace malisim::hpc
