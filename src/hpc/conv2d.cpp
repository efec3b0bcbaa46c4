// 2D Convolution (2dcon): 5x5 filter over a dim x dim image.
//
// Paper §IV-A: "useful to evaluate the performance in presence of spatial
// locality and strided memory accesses"; §V-A: 2dcon "provides extensive
// parallelism at both vector and thread level. In these cases most of the
// optimizations can be successfully applied (loop unrolling, vectorization,
// group-size and vector-size tuning) leading to a considerable increase in
// performance" (24x single precision).
//
// The fully optimized kernel computes four adjacent outputs per work-item
// from wide row loads and vext-style sliding windows, holding all ten row
// vectors live — in double precision this exceeds the per-thread register
// budget (CL_OUT_OF_RESOURCES) and the benchmark falls back to a mid-grade
// row-dot kernel, reproducing the shrunken Opt-vs-naive gap of Fig. 2(b).
#include <cmath>
#include <vector>

#include "common/prng.h"
#include "hpc/detail.h"
#include "hpc/kernels.h"
#include "ocl/cl_error.h"

namespace malisim::hpc {
namespace {

using detail::FpBuffer;
using kir::ArgKind;
using kir::KernelBuilder;
using kir::Opcode;
using kir::Val;

constexpr int kTaps = 5;  // 5x5 filter
constexpr int kHalo = kTaps / 2;

class Conv2DBenchmark final : public Benchmark {
 public:
  explicit Conv2DBenchmark(const ProblemSizes& sizes) : dim_(sizes.conv_dim) {}

  std::string name() const override { return "2dcon"; }
  std::string description() const override {
    return "5x5 2D convolution (spatial locality, vectorizable)";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    fp64_ = fp64;
    seed_ = seed;
    const std::size_t total = static_cast<std::size_t>(dim_) * dim_;
    in_ = FpBuffer(fp64, total);
    filt_ = FpBuffer(fp64, kTaps * kTaps);
    Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < total; ++i) in_.Set(i, rng.NextDouble(-1, 1));
    double fsum = 0.0;
    for (int i = 0; i < kTaps * kTaps; ++i) {
      const double w = rng.NextDouble(0.0, 1.0);
      filt_.Set(i, w);
      fsum += w;
    }
    for (int i = 0; i < kTaps * kTaps; ++i) {
      filt_.Set(i, filt_.Get(i) / fsum);  // normalized blur
    }

    ref_.assign(total, 0.0);
    const std::size_t d = dim_;
    for (std::size_t y = kHalo; y + kHalo < d; ++y) {
      for (std::size_t x = kHalo; x + kHalo < d; ++x) {
        double acc = 0.0;
        for (int r = 0; r < kTaps; ++r) {
          for (int t = 0; t < kTaps; ++t) {
            acc += filt_.Get(r * kTaps + t) *
                   in_.Get((y + r - kHalo) * d + (x + t - kHalo));
          }
        }
        ref_[y * d + x] = acc;
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

  // §III knobs: kernel flavor (row-dot vs register-blocked quad-output)
  // and the 2D work-group shape. In FP64 the quad flavor exceeds the
  // register budget and those candidates are skipped, steering the search
  // to row-dot — the tuner-level analogue of the Fig. 2(b) fallback.
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"quad", {0, 1}}, {"wgx", {8, 16, 32}}, {"wgy", {2, 8, 16}}};
    space.valid = [](const sim::TuningConfig& c) {
      return c.Get("wgx", 1) * c.Get("wgy", 1) <=
             static_cast<std::int64_t>(ocl::Context::kMaxWorkGroupSize);
    };
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("quad", 1);
    config.Set("wgx", 16);
    config.Set("wgy", 16);
    return config;
  }

  StatusOr<RunOutcome> RunTuned(const sim::TuningConfig& config,
                                Devices& devices) override {
    MALI_CHECK(devices.gpu != nullptr);
    const bool quad = config.Get("quad", 1) != 0;
    const std::uint64_t wgx = static_cast<std::uint64_t>(config.Get("wgx", 16));
    const std::uint64_t wgy = static_cast<std::uint64_t>(config.Get("wgy", 16));

    StatusOr<kir::Program> program = BuildGpuKernel(
        "2dcon_cl_tuned", quad ? Flavor::kQuadOut : Flavor::kRowDot, true);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;
    auto in = detail::MakeGpuBuffer(ctx, in_.data(), in_.bytes());
    if (!in.ok()) return in.status();
    auto filt = detail::MakeGpuBuffer(ctx, filt_.data(), filt_.bytes());
    if (!filt.ok()) return filt.status();
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
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(1, *filt));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(2, *out));
    MALI_RETURN_IF_ERROR(
        (*kernel)->SetArgI32(3, static_cast<std::int32_t>(dim_)));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.work_dim = 2;
    const std::uint64_t grid = quad ? dim_ / 4 : dim_;
    launch.global[0] = grid;
    launch.global[1] = grid;
    const std::uint64_t tuned_local[3] = {detail::TunedLocalSize(grid, wgx),
                                          detail::TunedLocalSize(grid, wgy), 1};
    launch.local = tuned_local;
    StatusOr<RunOutcome> outcome = detail::RunGpuLaunches(devices, {&launch, 1});
    if (!outcome.ok()) return outcome;

    const std::size_t total = static_cast<std::size_t>(dim_) * dim_;
    FpBuffer result(fp64_, total);
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **out, result.data(), result.bytes()));
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), tol());
    return outcome;
  }

  StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const override {
    StatusOr<kir::Program> program = BuildGpuKernel(
        "2dcon_cl_tuned",
        config.Get("quad", 1) != 0 ? Flavor::kQuadOut : Flavor::kRowDot, true);
    if (!program.ok()) return program.status();
    return kir::ToText(*program);
  }

 private:
  kir::ScalarType ft() const {
    return fp64_ ? kir::ScalarType::kF64 : kir::ScalarType::kF32;
  }
  double tol() const { return fp64_ ? 1e-12 : 1e-4; }

  enum class Flavor {
    kScalar,   // naive & CPU: 25 scalar input + 25 scalar filter loads
    kRowDot,   // mid: vec4 row loads + vsum, one output per work-item
    kQuadOut,  // full opt: 4 outputs from vec8-equivalent loads + slides
  };

  /// Scalar 25-tap body for output (x, y).
  void EmitScalarPoint(KernelBuilder& kb, kir::BufferRef in, kir::BufferRef filt,
                       kir::BufferRef out, Val x, Val y, Val d) const {
    const kir::Type FT = kir::FloatType(fp64_);
    Val acc = kb.Var(FT, "acc");
    kb.Assign(acc, detail::FConst(kb, fp64_, 0.0));
    for (int r = 0; r < kTaps; ++r) {
      Val row = kb.Binary(Opcode::kAdd, y, kb.ConstI(kir::I32(), r - kHalo));
      Val row_base = kb.Binary(Opcode::kMul, row, d);
      Val idx0 = kb.Binary(Opcode::kAdd, row_base, x);
      for (int t = 0; t < kTaps; ++t) {
        Val v = kb.Load(in, idx0, t - kHalo);
        Val w = kb.Load(filt, kb.ConstI(kir::I32(), r * kTaps + t));
        kb.Assign(acc, kb.Fma(w, v, acc));
      }
    }
    kb.Store(out, kb.Binary(Opcode::kAdd, kb.Binary(Opcode::kMul, y, d), x),
             acc);
  }

  /// Row-dot body: per filter row one vload4 + one scalar load, vec4
  /// multiply-accumulate folded once at the end.
  void EmitRowDotPoint(KernelBuilder& kb, kir::BufferRef in,
                       kir::BufferRef filt, kir::BufferRef out, Val x, Val y,
                       Val d) const {
    const kir::Type FT = kir::FloatType(fp64_);
    const kir::Type FT4 = kir::FloatType(fp64_, 4);
    Val acc4 = kb.Var(FT4, "acc4");
    Val accs = kb.Var(FT, "accs");
    kb.Assign(acc4, detail::FConst(kb, fp64_, 0.0, 4));
    kb.Assign(accs, detail::FConst(kb, fp64_, 0.0));
    for (int r = 0; r < kTaps; ++r) {
      Val row = kb.Binary(Opcode::kAdd, y, kb.ConstI(kir::I32(), r - kHalo));
      Val idx0 = kb.Binary(Opcode::kAdd, kb.Binary(Opcode::kMul, row, d), x);
      Val v4 = kb.Load(in, idx0, -kHalo, 4);          // taps 0..3
      Val vs = kb.Load(in, idx0, kHalo);              // tap 4
      Val w4 = kb.Load(filt, kb.ConstI(kir::I32(), r * kTaps), 0, 4);
      Val ws = kb.Load(filt, kb.ConstI(kir::I32(), r * kTaps + 4));
      kb.Assign(acc4, kb.Fma(w4, v4, acc4));
      kb.Assign(accs, kb.Fma(ws, vs, accs));
    }
    Val result = kb.VSum(acc4) + accs;
    kb.Store(out, kb.Binary(Opcode::kAdd, kb.Binary(Opcode::kMul, y, d), x),
             result);
  }

  /// Register-blocked body: a 4x4 output tile (columns x4..x4+3, rows
  /// y4..y4+3) from two vload4 per input row and vext-style slides. The
  /// kBlockRows input rows y4-2..y4+5 are each loaded once and their five
  /// sliding windows are shared by every output row that uses them —
  /// 8 vector loads and 40 slides feed 16 outputs. The filter is splat
  /// once per tap per tile. This keeps many vector registers live, which
  /// is exactly what exhausts the register file in FP64 (paper §V-A).
  static constexpr int kBlockRows = 4;
  void EmitQuadBlock(KernelBuilder& kb, kir::BufferRef in, kir::BufferRef filt,
                     kir::BufferRef out, Val x4, Val y4, Val d) const {
    const kir::Type FT4 = kir::FloatType(fp64_, 4);
    Val fzero4 = detail::FConst(kb, fp64_, 0.0, 4);
    // Filter taps loaded once per tile (scalar registers; splat at use —
    // Midgard's scalar-operand broadcast).
    std::vector<Val> wtap(kTaps * kTaps);
    for (int i = 0; i < kTaps * kTaps; ++i) {
      wtap[i] = kb.Load(filt, kb.ConstI(kir::I32(), i));
    }
    std::vector<Val> acc(kBlockRows);
    for (int o = 0; o < kBlockRows; ++o) {
      acc[o] = kb.Var(FT4, "acc" + std::to_string(o));
      kb.Assign(acc[o], fzero4);
    }
    // Stream input rows y4-2 .. y4+kBlockRows+1; each row contributes tap
    // r = row - (output row) + kHalo to every output row in range.
    for (int ir = -kHalo; ir < kBlockRows + kHalo; ++ir) {
      Val row = kb.Binary(Opcode::kAdd, y4, kb.ConstI(kir::I32(), ir));
      Val idx0 = kb.Binary(Opcode::kAdd, kb.Binary(Opcode::kMul, row, d), x4);
      Val lo = kb.Load(in, idx0, -kHalo, 4);
      Val hi = kb.Load(in, idx0, -kHalo + 4, 4);
      for (int t = 0; t < kTaps; ++t) {
        Val window = t == 0 ? lo : kb.Slide(lo, hi, t);
        for (int o = 0; o < kBlockRows; ++o) {
          const int r = ir - o + kHalo;  // filter row seen by output row o
          if (r < 0 || r >= kTaps) continue;
          Val w = kb.Splat(wtap[r * kTaps + t], 4);
          kb.Assign(acc[o], kb.Fma(w, window, acc[o]));
        }
      }
    }
    for (int o = 0; o < kBlockRows; ++o) {
      Val row = kb.Binary(Opcode::kAdd, y4, kb.ConstI(kir::I32(), o));
      Val out_idx = kb.Binary(Opcode::kAdd, kb.Binary(Opcode::kMul, row, d), x4);
      kb.Store(out, out_idx, acc[o]);
    }
  }

  StatusOr<kir::Program> BuildCpuKernel() const {
    KernelBuilder kb("2dcon_cpu");
    auto in = kb.ArgBuffer("in", ft(), ArgKind::kBufferRO);
    auto filt = kb.ArgBuffer("filt", ft(), ArgKind::kBufferRO);
    auto out = kb.ArgBuffer("out", ft(), ArgKind::kBufferWO);
    Val d = kb.ArgScalar("d", kir::ScalarType::kI32);
    Val halo = kb.ConstI(kir::I32(), kHalo);
    Val interior = kb.Binary(Opcode::kSub, d, kb.ConstI(kir::I32(), 2 * kHalo));
    detail::Chunk chunk = detail::ThreadChunk(kb, interior);
    Val y_start = kb.Binary(Opcode::kAdd, chunk.start, halo);
    Val y_end = kb.Binary(Opcode::kAdd, chunk.end, halo);
    Val x_end = kb.Binary(Opcode::kSub, d, halo);
    kb.For("y", y_start, y_end, 1, [&](Val y) {
      kb.ParallelFor("x", halo, x_end, 1, [&](Val x) {
        EmitScalarPoint(kb, in, filt, out, x, y, d);
      });
    });
    return kb.Build();
  }

  StatusOr<kir::Program> BuildGpuKernel(const std::string& kernel_name,
                                        Flavor flavor, bool qualified) const {
    KernelBuilder kb(kernel_name);
    auto in = kb.ArgBuffer("in", ft(), ArgKind::kBufferRO, qualified, qualified);
    auto filt = kb.ArgBuffer("filt", ft(), ArgKind::kBufferRO, qualified,
                             qualified);
    auto out = kb.ArgBuffer("out", ft(), ArgKind::kBufferWO, qualified, false);
    Val d = kb.ArgScalar("d", kir::ScalarType::kI32);
    Val halo = kb.ConstI(kir::I32(), kHalo);
    Val x_hi = kb.Binary(Opcode::kSub, d, halo);
    Val y = kb.GlobalId(1);
    Val y_ok = kb.CmpGe(y, halo) & kb.CmpLt(y, x_hi);
    if (flavor == Flavor::kQuadOut) {
      // dim0/dim1 index 4x4 output tiles: x4 = 4*gid0, y4 = 4*gid1.
      Val x4 = kb.Binary(Opcode::kMul, kb.GlobalId(0), kb.ConstI(kir::I32(), 4));
      Val y4 = kb.Binary(Opcode::kMul, kb.GlobalId(1), kb.ConstI(kir::I32(), 4));
      // Full tiles need the span x4-2..x4+5 and rows y4-2..y4+5 in range.
      Val quad_hi = kb.Binary(Opcode::kSub, d,
                              kb.ConstI(kir::I32(), kHalo + 4 + 1));
      Val inside = kb.CmpGe(x4, halo) & kb.CmpLe(x4, quad_hi) &
                   kb.CmpGe(y4, halo) & kb.CmpLe(y4, quad_hi);
      kb.If(inside, [&] { EmitQuadBlock(kb, in, filt, out, x4, y4, d); },
            [&] {
              // Edge tiles fall back to row-dot outputs with bounds checks
              // (kept light so boundary work-items do not unbalance their
              // group — the Job Manager waits for the heaviest item).
              for (int ky = 0; ky < 4; ++ky) {
                Val yy = kb.Binary(Opcode::kAdd, y4, kb.ConstI(kir::I32(), ky));
                Val yy_ok = kb.CmpGe(yy, halo) & kb.CmpLt(yy, x_hi);
                for (int kx = 0; kx < 4; ++kx) {
                  Val x = kb.Binary(Opcode::kAdd, x4, kb.ConstI(kir::I32(), kx));
                  Val ok = kb.CmpGe(x, halo) & kb.CmpLt(x, x_hi) & yy_ok;
                  kb.If(ok,
                        [&] { EmitRowDotPoint(kb, in, filt, out, x, yy, d); });
                }
              }
            });
    } else {
      Val x = kb.GlobalId(0);
      Val inside = kb.CmpGe(x, halo) & kb.CmpLt(x, x_hi) & y_ok;
      kb.If(inside, [&] {
        if (flavor == Flavor::kScalar) {
          EmitScalarPoint(kb, in, filt, out, x, y, d);
        } else {
          EmitRowDotPoint(kb, in, filt, out, x, y, d);
        }
      });
    }
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) {
    StatusOr<kir::Program> program = BuildCpuKernel();
    if (!program.ok()) return program.status();
    const std::size_t total = static_cast<std::size_t>(dim_) * dim_;
    FpBuffer out(fp64_, total);
    kir::LaunchConfig config;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{in_.data(), in_.bytes()},
         {filt_.data(), filt_.bytes()},
         {out.data(), out.bytes()}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(dim_))}, threads);
    if (!outcome.ok()) return outcome;
    detail::FinishValidation(&*outcome, detail::MaxRelError(out, ref_), tol());
    return outcome;
  }

  StatusOr<RunOutcome> RunGpuVariant(Devices& devices, bool optimized) {
    ocl::Context& ctx = *devices.gpu;
    auto in = detail::MakeGpuBuffer(ctx, in_.data(), in_.bytes());
    if (!in.ok()) return in.status();
    auto filt = detail::MakeGpuBuffer(ctx, filt_.data(), filt_.bytes());
    if (!filt.ok()) return filt.status();
    auto out = detail::MakeGpuBuffer(ctx, nullptr, in_.bytes());
    if (!out.ok()) return out.status();

    // Kernel rungs of the degradation ladder: the quad-output kernel's
    // register appetite trips CL_OUT_OF_RESOURCES in DP and falls back to
    // the row-dot kernel (paper §V-A); injected compiler/queue faults walk
    // the same rungs.
    std::vector<fault::Rung<RunOutcome>> rungs;
    if (optimized) {
      rungs.push_back({"quad-output kernel", [&] {
                         return TryGpu(devices, "2dcon_cl_opt",
                                       Flavor::kQuadOut, true, *in, *filt,
                                       *out);
                       }});
      rungs.push_back({"row-dot kernel", [&] {
                         return TryGpu(devices, "2dcon_cl_opt_mild",
                                       Flavor::kRowDot, true, *in, *filt,
                                       *out);
                       }});
    } else {
      rungs.push_back({"naive scalar kernel", [&] {
                         return TryGpu(devices, "2dcon_cl", Flavor::kScalar,
                                       false, *in, *filt, *out);
                       }});
    }
    StatusOr<RunOutcome> outcome = detail::RunKernelLadder(devices, rungs);
    if (!outcome.ok()) return outcome;

    const std::size_t total = static_cast<std::size_t>(dim_) * dim_;
    FpBuffer result(fp64_, total);
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **out, result.data(), result.bytes()));
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), tol());
    return outcome;
  }

  StatusOr<RunOutcome> TryGpu(Devices& devices, const std::string& kernel_name,
                              Flavor flavor, bool tuned,
                              const std::shared_ptr<ocl::Buffer>& in,
                              const std::shared_ptr<ocl::Buffer>& filt,
                              const std::shared_ptr<ocl::Buffer>& out) {
    StatusOr<kir::Program> program = BuildGpuKernel(kernel_name, flavor, tuned);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;
    std::vector<kir::Program> kernels;
    kernels.push_back(*std::move(program));
    std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(kernels));
    MALI_RETURN_IF_ERROR(prog->Build());
    auto kernel = ctx.CreateKernel(prog, kernel_name);
    if (!kernel.ok()) return kernel.status();
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(0, in));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(1, filt));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(2, out));
    MALI_RETURN_IF_ERROR(
        (*kernel)->SetArgI32(3, static_cast<std::int32_t>(dim_)));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.work_dim = 2;
    const std::uint64_t tuned_local[3] = {detail::TunedLocalSize(dim_, 32),
                                          detail::TunedLocalSize(dim_, 8), 1};
    const std::uint64_t tuned_local_quad[3] = {
        detail::TunedLocalSize(dim_ / 4, 16),
        detail::TunedLocalSize(dim_ / 4, 16), 1};
    if (flavor == Flavor::kQuadOut) {
      launch.global[0] = dim_ / 4;
      launch.global[1] = dim_ / 4;
      launch.local = tuned_local_quad;
    } else {
      launch.global[0] = dim_;
      launch.global[1] = dim_;
      launch.local = tuned ? tuned_local : nullptr;
    }
    return detail::RunGpuLaunches(devices, {&launch, 1});
  }

  std::uint32_t dim_;
  FpBuffer in_, filt_;
  std::vector<double> ref_;
};

}  // namespace

std::unique_ptr<Benchmark> MakeConv2D(const ProblemSizes& sizes) {
  return std::make_unique<Conv2DBenchmark>(sizes);
}

}  // namespace malisim::hpc
