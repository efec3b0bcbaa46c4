// Dense Matrix-Matrix Multiplication (dmmm): C = A * B, square matrices.
//
// Paper §IV-A: "measures the ability of the compute accelerator to exploit
// data reuse and compute performance"; §V-A: with the full optimization
// stack (vectorization, unrolling, group-size tuning) it posts the paper's
// biggest gain (25.5x single precision, 30x double precision — notably the
// one heavily-optimized kernel whose FP64 version fits the register file).
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

class DmmmBenchmark final : public Benchmark {
 public:
  explicit DmmmBenchmark(const ProblemSizes& sizes) : n_(sizes.dmmm_n) {}

  std::string name() const override { return "dmmm"; }
  std::string description() const override {
    return "dense matrix-matrix multiplication (data reuse, compute)";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    fp64_ = fp64;
    seed_ = seed;
    const std::size_t total = static_cast<std::size_t>(n_) * n_;
    a_ = FpBuffer(fp64, total);
    b_ = FpBuffer(fp64, total);
    Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < total; ++i) {
      a_.Set(i, rng.NextDouble(-1, 1));
      b_.Set(i, rng.NextDouble(-1, 1));
    }
    ref_.assign(total, 0.0);
    for (std::uint32_t i = 0; i < n_; ++i) {
      for (std::uint32_t j = 0; j < n_; ++j) {
        double acc = 0.0;
        for (std::uint32_t k = 0; k < n_; ++k) {
          acc += a_.Get(static_cast<std::size_t>(i) * n_ + k) *
                 b_.Get(static_cast<std::size_t>(k) * n_ + j);
        }
        ref_[static_cast<std::size_t>(i) * n_ + j] = acc;
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

  // §III knobs: output vector width (B-row vload width = outputs per
  // work-item), k-loop unroll factor, and the square work-group tile edge.
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"vec", {1, 2, 4}}, {"unroll", {1, 2, 4}}, {"tile", {8, 16}}};
    space.valid = [n = n_](const sim::TuningConfig& c) {
      return n % static_cast<std::uint32_t>(c.Get("vec", 1)) == 0;
    };
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("vec", 4);
    config.Set("unroll", 4);
    config.Set("tile", 16);
    return config;
  }

  StatusOr<RunOutcome> RunTuned(const sim::TuningConfig& config,
                                Devices& devices) override {
    MALI_CHECK(devices.gpu != nullptr);
    const int vec = static_cast<int>(config.Get("vec", 4));
    const int unroll = static_cast<int>(config.Get("unroll", 4));
    const std::uint64_t tile = static_cast<std::uint64_t>(config.Get("tile", 16));

    StatusOr<kir::Program> program = BuildGpuTuned(vec, unroll);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;
    auto a = detail::MakeGpuBuffer(ctx, a_.data(), a_.bytes());
    if (!a.ok()) return a.status();
    auto b = detail::MakeGpuBuffer(ctx, b_.data(), b_.bytes());
    if (!b.ok()) return b.status();
    auto c = detail::MakeGpuBuffer(ctx, nullptr, a_.bytes());
    if (!c.ok()) return c.status();

    const std::string kernel_name = program->name;
    std::vector<kir::Program> kernels;
    kernels.push_back(*std::move(program));
    std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(kernels));
    MALI_RETURN_IF_ERROR(prog->Build());
    auto kernel = ctx.CreateKernel(prog, kernel_name);
    if (!kernel.ok()) return kernel.status();
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(0, *a));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(1, *b));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(2, *c));
    MALI_RETURN_IF_ERROR(
        (*kernel)->SetArgI32(3, static_cast<std::int32_t>(n_)));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.work_dim = 2;
    launch.global[0] = n_ / static_cast<std::uint64_t>(vec);
    launch.global[1] = n_;
    const std::uint64_t tuned_local[3] = {
        detail::TunedLocalSize(launch.global[0], tile),
        detail::TunedLocalSize(n_, tile), 1};
    launch.local = tuned_local;
    StatusOr<RunOutcome> outcome = detail::RunGpuLaunches(devices, {&launch, 1});
    if (!outcome.ok()) return outcome;

    const std::size_t total = static_cast<std::size_t>(n_) * n_;
    FpBuffer result(fp64_, total);
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **c, result.data(), result.bytes()));
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), tol());
    return outcome;
  }

  StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const override {
    StatusOr<kir::Program> program =
        BuildGpuTuned(static_cast<int>(config.Get("vec", 4)),
                      static_cast<int>(config.Get("unroll", 4)));
    if (!program.ok()) return program.status();
    return kir::ToText(*program);
  }

 private:
  kir::ScalarType ft() const {
    return fp64_ ? kir::ScalarType::kF64 : kir::ScalarType::kF32;
  }
  double tol() const { return fp64_ ? 1e-10 : 2e-3; }

  /// Scalar inner product: C[i,j] = sum_k A[i,k] * B[k,j].
  void EmitScalarOutput(KernelBuilder& kb, kir::BufferRef a, kir::BufferRef b,
                        kir::BufferRef c, Val i, Val j, Val n) const {
    const kir::Type FT = kir::FloatType(fp64_);
    Val acc = kb.Var(FT, "acc");
    kb.Assign(acc, detail::FConst(kb, fp64_, 0.0));
    Val row_base = kb.Binary(Opcode::kMul, i, n);
    kb.For("k", kb.ConstI(kir::I32(), 0), n, 1, [&](Val k) {
      Val av = kb.Load(a, kb.Binary(Opcode::kAdd, row_base, k));
      Val bv = kb.Load(b, kb.Binary(Opcode::kAdd, kb.Binary(Opcode::kMul, k, n), j));
      kb.Assign(acc, kb.Fma(av, bv, acc));
    });
    kb.Store(c, kb.Binary(Opcode::kAdd, row_base, j), acc);
  }

  StatusOr<kir::Program> BuildCpuKernel() const {
    KernelBuilder kb("dmmm_cpu");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    detail::Chunk chunk = detail::ThreadChunk(kb, n);  // rows of C
    kb.For("i", chunk.start, chunk.end, 1, [&](Val i) {
      kb.ParallelFor("j", kb.ConstI(kir::I32(), 0), n, 1,
                     [&](Val j) { EmitScalarOutput(kb, a, b, c, i, j, n); });
    });
    return kb.Build();
  }

  StatusOr<kir::Program> BuildGpuNaive() const {
    KernelBuilder kb("dmmm_cl");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    EmitScalarOutput(kb, a, b, c, kb.GlobalId(1), kb.GlobalId(0), n);
    return kb.Build();
  }

  // Opt (§III-B: vectorization + unrolling + tuned work-group size): each
  // work-item computes C[i, 4j..4j+3] with a float4 accumulator; per k the
  // B row contributes a contiguous vload4 and A contributes one splat
  // scalar. The k loop is hand-unrolled by four.
  StatusOr<kir::Program> BuildGpuOpt() const {
    KernelBuilder kb("dmmm_cl_opt");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO, true, true);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO, true, true);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO, true, false);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    const kir::Type FT4 = kir::FloatType(fp64_, 4);
    Val i = kb.GlobalId(1);
    Val j4 = kb.Binary(Opcode::kMul, kb.GlobalId(0), kb.ConstI(kir::I32(), 4));
    Val row_base = kb.Binary(Opcode::kMul, i, n);
    Val acc4 = kb.Var(FT4, "acc4");
    kb.Assign(acc4, detail::FConst(kb, fp64_, 0.0, 4));
    kb.ForUnrolled("k", kb.ConstI(kir::I32(), 0), n, 1, 4, [&](Val k) {
      Val av = kb.Splat(kb.Load(a, kb.Binary(Opcode::kAdd, row_base, k)), 4);
      Val b4 = kb.Load(b, kb.Binary(Opcode::kAdd,
                                    kb.Binary(Opcode::kMul, k, n), j4),
                       0, 4);
      kb.Assign(acc4, kb.Fma(av, b4, acc4));
    });
    kb.Store(c, kb.Binary(Opcode::kAdd, row_base, j4), acc4);
    return kb.Build();
  }

  /// BuildGpuOpt generalized over output width and k unroll. vec == 1 is
  /// the scalar-accumulator form with the §III-C qualifiers.
  StatusOr<kir::Program> BuildGpuTuned(int vec, int unroll) const {
    KernelBuilder kb("dmmm_cl_tuned");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO, true, true);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO, true, true);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO, true, false);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    Val i = kb.GlobalId(1);
    Val row_base = kb.Binary(Opcode::kMul, i, n);
    Val zero = kb.ConstI(kir::I32(), 0);

    auto k_loop = [&](auto body) {
      if (unroll > 1) {
        kb.ForUnrolled("k", zero, n, 1, unroll, body);
      } else {
        kb.For("k", zero, n, 1, body);
      }
    };
    if (vec <= 1) {
      Val j = kb.GlobalId(0);
      Val acc = kb.Var(kir::FloatType(fp64_), "acc");
      kb.Assign(acc, detail::FConst(kb, fp64_, 0.0));
      k_loop([&](Val k) {
        Val av = kb.Load(a, kb.Binary(Opcode::kAdd, row_base, k));
        Val bv = kb.Load(
            b, kb.Binary(Opcode::kAdd, kb.Binary(Opcode::kMul, k, n), j));
        kb.Assign(acc, kb.Fma(av, bv, acc));
      });
      kb.Store(c, kb.Binary(Opcode::kAdd, row_base, j), acc);
    } else {
      const auto lanes = static_cast<std::uint8_t>(vec);
      Val jv = kb.Binary(Opcode::kMul, kb.GlobalId(0), kb.ConstI(kir::I32(), vec));
      Val accv = kb.Var(kir::FloatType(fp64_, lanes), "accv");
      kb.Assign(accv, detail::FConst(kb, fp64_, 0.0, lanes));
      k_loop([&](Val k) {
        Val av = kb.Splat(kb.Load(a, kb.Binary(Opcode::kAdd, row_base, k)),
                          lanes);
        Val bv = kb.Load(b, kb.Binary(Opcode::kAdd,
                                      kb.Binary(Opcode::kMul, k, n), jv),
                         0, lanes);
        kb.Assign(accv, kb.Fma(av, bv, accv));
      });
      kb.Store(c, kb.Binary(Opcode::kAdd, row_base, jv), accv);
    }
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) {
    StatusOr<kir::Program> program = BuildCpuKernel();
    if (!program.ok()) return program.status();
    const std::size_t total = static_cast<std::size_t>(n_) * n_;
    FpBuffer c(fp64_, total);
    kir::LaunchConfig config;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{a_.data(), a_.bytes()}, {b_.data(), b_.bytes()}, {c.data(), c.bytes()}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(n_))}, threads);
    if (!outcome.ok()) return outcome;
    detail::FinishValidation(&*outcome, detail::MaxRelError(c, ref_), tol());
    return outcome;
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

    const std::string kernel_name = program->name;
    std::vector<kir::Program> kernels;
    kernels.push_back(*std::move(program));
    std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(kernels));
    MALI_RETURN_IF_ERROR(prog->Build());
    auto kernel = ctx.CreateKernel(prog, kernel_name);
    if (!kernel.ok()) return kernel.status();
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(0, *a));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(1, *b));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(2, *c));
    MALI_RETURN_IF_ERROR(
        (*kernel)->SetArgI32(3, static_cast<std::int32_t>(n_)));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.work_dim = 2;
    // Opt: 16x16 output blocks maximize B-row reuse within a group.
    const std::uint64_t tuned_local[3] = {detail::TunedLocalSize(n_ / 4, 16),
                                          detail::TunedLocalSize(n_, 16), 1};
    if (optimized) {
      launch.global[0] = n_ / 4;
      launch.global[1] = n_;
      launch.local = tuned_local;
    } else {
      launch.global[0] = n_;
      launch.global[1] = n_;
      launch.local = nullptr;
    }
    StatusOr<RunOutcome> outcome = detail::RunGpuLaunches(devices, {&launch, 1});
    if (!outcome.ok()) return outcome;

    const std::size_t total = static_cast<std::size_t>(n_) * n_;
    FpBuffer result(fp64_, total);
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **c, result.data(), result.bytes()));
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), tol());
    return outcome;
  }

  std::uint32_t n_;
  FpBuffer a_, b_;
  std::vector<double> ref_;
};

}  // namespace

std::unique_ptr<Benchmark> MakeDmmm(const ProblemSizes& sizes) {
  return std::make_unique<DmmmBenchmark>(sizes);
}

}  // namespace malisim::hpc
