// N-Body (nbody): all-pairs gravitational update over one time step.
//
// Paper §IV-A/§V-A: bodies are kept in the natural Array-of-Structures
// layout ("the OpenCL version does not apply any change to the main data
// structure representation that would lead to an easier applicability of
// vector optimizations. For this reason, the OpenCL Opt version does not
// show significant improvements"). The naive GPU port is already fast —
// the inner loop is dominated by the reciprocal-square-root, which the
// Mali's special-function path evaluates far more cheaply (in relative
// cycle terms) than the A15's scalar VFP.
//
// The fully optimized kernel vector-gathers four interaction partners per
// iteration; in double precision that blows the per-thread register budget
// (CL_OUT_OF_RESOURCES at enqueue, as the paper reports) and the benchmark
// falls back to a mildly optimized scalar kernel, closing most of the
// Opt-vs-naive gap in Fig. 2(b).
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

constexpr double kDt = 0.01;
constexpr double kEps = 0.05;  // softening

class NbodyBenchmark final : public Benchmark {
 public:
  explicit NbodyBenchmark(const ProblemSizes& sizes) : n_(sizes.nbody_n) {}

  std::string name() const override { return "nbody"; }
  std::string description() const override {
    return "all-pairs gravitational N-body step (AOS layout)";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    fp64_ = fp64;
    seed_ = seed;
    // AOS: bodies[i*4 + {0,1,2,3}] = {x, y, z, mass};
    //      vel[i*4 + {0,1,2}] = {vx, vy, vz} (lane 3 padding).
    bodies_ = FpBuffer(fp64, static_cast<std::size_t>(n_) * 4);
    vel_ = FpBuffer(fp64, static_cast<std::size_t>(n_) * 4);
    Xoshiro256 rng(seed);
    for (std::uint32_t i = 0; i < n_; ++i) {
      bodies_.Set(i * 4 + 0, rng.NextDouble(-1, 1));
      bodies_.Set(i * 4 + 1, rng.NextDouble(-1, 1));
      bodies_.Set(i * 4 + 2, rng.NextDouble(-1, 1));
      bodies_.Set(i * 4 + 3, rng.NextDouble(0.1, 1.0));
      vel_.Set(i * 4 + 0, rng.NextDouble(-0.1, 0.1));
      vel_.Set(i * 4 + 1, rng.NextDouble(-0.1, 0.1));
      vel_.Set(i * 4 + 2, rng.NextDouble(-0.1, 0.1));
      vel_.Set(i * 4 + 3, 0.0);
    }

    // SOA mirror of the bodies for the tuned layout axis (separate x/y/z/m
    // streams; outputs stay AOS so validation is layout-independent).
    soa_x_ = FpBuffer(fp64, n_);
    soa_y_ = FpBuffer(fp64, n_);
    soa_z_ = FpBuffer(fp64, n_);
    soa_m_ = FpBuffer(fp64, n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      soa_x_.Set(i, bodies_.Get(i * 4 + 0));
      soa_y_.Set(i, bodies_.Get(i * 4 + 1));
      soa_z_.Set(i, bodies_.Get(i * 4 + 2));
      soa_m_.Set(i, bodies_.Get(i * 4 + 3));
    }

    // Double-precision reference (tolerances absorb ordering differences).
    ref_pos_.assign(static_cast<std::size_t>(n_) * 4, 0.0);
    ref_vel_.assign(static_cast<std::size_t>(n_) * 4, 0.0);
    for (std::uint32_t i = 0; i < n_; ++i) {
      const double xi = bodies_.Get(i * 4), yi = bodies_.Get(i * 4 + 1),
                   zi = bodies_.Get(i * 4 + 2);
      double ax = 0, ay = 0, az = 0;
      for (std::uint32_t j = 0; j < n_; ++j) {
        const double dx = bodies_.Get(j * 4) - xi;
        const double dy = bodies_.Get(j * 4 + 1) - yi;
        const double dz = bodies_.Get(j * 4 + 2) - zi;
        const double r2 = dx * dx + dy * dy + dz * dz + kEps;
        const double inv = 1.0 / std::sqrt(r2);
        const double w = bodies_.Get(j * 4 + 3) * inv * inv * inv;
        ax += w * dx;
        ay += w * dy;
        az += w * dz;
      }
      for (int a = 0; a < 3; ++a) {
        const double acc = a == 0 ? ax : (a == 1 ? ay : az);
        const double v = vel_.Get(i * 4 + a) + kDt * acc;
        ref_vel_[i * 4 + a] = v;
        ref_pos_[i * 4 + a] = bodies_.Get(i * 4 + a) + kDt * v;
      }
      ref_pos_[i * 4 + 3] = bodies_.Get(i * 4 + 3);
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

  // §III knobs: kernel flavor (scalar rsqrt+unroll vs vector), body layout
  // (AOS as the paper keeps it, or the SOA transform the paper explicitly
  // does NOT apply — §V-A's "change to the main data structure
  // representation that would lead to an easier applicability of vector
  // optimizations"), and work-group size. The tuner is allowed to find that
  // SOA+vector beats the paper's AOS point; conformance only requires
  // matching-or-beating it.
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"vecflavor", {0, 1}},
                  {"soa", {0, 1}},
                  {"wg", {32, 64, 128}}};
    space.valid = [n = n_](const sim::TuningConfig& c) {
      return c.Get("vecflavor", 0) == 0 || n % 4 == 0;
    };
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("vecflavor", 1);
    config.Set("soa", 0);
    config.Set("wg", 64);
    return config;
  }

  StatusOr<RunOutcome> RunTuned(const sim::TuningConfig& config,
                                Devices& devices) override {
    MALI_CHECK(devices.gpu != nullptr);
    const bool vector = config.Get("vecflavor", 1) != 0;
    const bool soa = config.Get("soa", 0) != 0;
    const std::uint64_t wg = static_cast<std::uint64_t>(config.Get("wg", 64));

    StatusOr<kir::Program> program = BuildGpuTunedKernel(vector, soa);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;

    std::vector<std::shared_ptr<ocl::Buffer>> args;
    if (soa) {
      for (const FpBuffer* src : {&soa_x_, &soa_y_, &soa_z_, &soa_m_}) {
        auto buffer = detail::MakeGpuBuffer(ctx, src->data(), src->bytes());
        if (!buffer.ok()) return buffer.status();
        args.push_back(*std::move(buffer));
      }
    } else {
      auto bodies = detail::MakeGpuBuffer(ctx, bodies_.data(), bodies_.bytes());
      if (!bodies.ok()) return bodies.status();
      args.push_back(*std::move(bodies));
    }
    auto vel = detail::MakeGpuBuffer(ctx, vel_.data(), vel_.bytes());
    if (!vel.ok()) return vel.status();
    args.push_back(*std::move(vel));
    auto out_pos = detail::MakeGpuBuffer(ctx, nullptr, bodies_.bytes());
    if (!out_pos.ok()) return out_pos.status();
    args.push_back(*out_pos);
    auto out_vel = detail::MakeGpuBuffer(ctx, nullptr, vel_.bytes());
    if (!out_vel.ok()) return out_vel.status();
    args.push_back(*out_vel);

    const std::string kernel_name = program->name;
    std::vector<kir::Program> kernels;
    kernels.push_back(*std::move(program));
    std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(kernels));
    MALI_RETURN_IF_ERROR(prog->Build());
    auto kernel = ctx.CreateKernel(prog, kernel_name);
    if (!kernel.ok()) return kernel.status();
    for (std::size_t a = 0; a < args.size(); ++a) {
      MALI_RETURN_IF_ERROR(
          (*kernel)->SetArgBuffer(static_cast<std::uint32_t>(a), args[a]));
    }
    MALI_RETURN_IF_ERROR((*kernel)->SetArgI32(
        static_cast<std::uint32_t>(args.size()),
        static_cast<std::int32_t>(n_)));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.global[0] = n_;
    const std::uint64_t tuned_local[3] = {detail::TunedLocalSize(n_, wg), 1, 1};
    launch.local = tuned_local;
    StatusOr<RunOutcome> outcome = detail::RunGpuLaunches(devices, {&launch, 1});
    if (!outcome.ok()) return outcome;

    FpBuffer got_pos(fp64_, bodies_.size()), got_vel(fp64_, vel_.size());
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **out_pos, got_pos.data(), got_pos.bytes()));
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **out_vel, got_vel.data(), got_vel.bytes()));
    detail::FinishValidation(&*outcome, Error(got_pos, got_vel), tol());
    return outcome;
  }

  StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const override {
    StatusOr<kir::Program> program = BuildGpuTunedKernel(
        config.Get("vecflavor", 1) != 0, config.Get("soa", 0) != 0);
    if (!program.ok()) return program.status();
    return kir::ToText(*program);
  }

 private:
  kir::ScalarType ft() const {
    return fp64_ ? kir::ScalarType::kF64 : kir::ScalarType::kF32;
  }
  double tol() const { return fp64_ ? 1e-9 : 2e-2; }

  enum class Flavor {
    kScalarDivSqrt,  // naive & CPU: inv = 1 / sqrt(r2)
    kScalarRsqrt,    // mild opt: native rsqrt + unrolled x2
    kVectorGather,   // full opt: 4 partners per iteration via vector gathers
  };

  /// Emits the per-body update for body index `i`.
  void EmitBody(KernelBuilder& kb, kir::BufferRef bodies, kir::BufferRef vel,
                kir::BufferRef out_pos, kir::BufferRef out_vel, Val i, Val n,
                Flavor flavor) const {
    const kir::Type FT = kir::FloatType(fp64_);
    const kir::Type FT4 = kir::FloatType(fp64_, 4);
    Val four = kb.ConstI(kir::I32(), 4);
    Val base_i = kb.Binary(Opcode::kMul, i, four);
    Val xi = kb.Load(bodies, base_i, 0);
    Val yi = kb.Load(bodies, base_i, 1);
    Val zi = kb.Load(bodies, base_i, 2);
    Val eps = detail::FConst(kb, fp64_, kEps);
    Val dt = detail::FConst(kb, fp64_, kDt);

    Val ax = kb.Var(FT, "ax"), ay = kb.Var(FT, "ay"), az = kb.Var(FT, "az");
    Val fzero = detail::FConst(kb, fp64_, 0.0);
    kb.Assign(ax, fzero);
    kb.Assign(ay, fzero);
    kb.Assign(az, fzero);

    if (flavor == Flavor::kVectorGather) {
      // Four partners per iteration. The AOS layout forces a transpose:
      // four vload4 of whole bodies plus lane extraction — many live vector
      // registers (this is what exhausts the register file in FP64).
      Val xi4 = kb.Splat(xi, 4), yi4 = kb.Splat(yi, 4), zi4 = kb.Splat(zi, 4);
      Val eps4 = kb.Splat(eps, 4);
      Val ax4 = kb.Var(FT4, "ax4"), ay4 = kb.Var(FT4, "ay4"),
          az4 = kb.Var(FT4, "az4");
      Val fzero4 = detail::FConst(kb, fp64_, 0.0, 4);
      kb.Assign(ax4, fzero4);
      kb.Assign(ay4, fzero4);
      kb.Assign(az4, fzero4);
      kb.For("j", kb.ConstI(kir::I32(), 0), n, 4, [&](Val j) {
        Val base_j = kb.Binary(Opcode::kMul, j, four);
        // Load 4 complete bodies (x,y,z,m each) and transpose via lanes.
        Val b0 = kb.Load(bodies, base_j, 0, 4);
        Val b1 = kb.Load(bodies, base_j, 4, 4);
        Val b2 = kb.Load(bodies, base_j, 8, 4);
        Val b3 = kb.Load(bodies, base_j, 12, 4);
        auto gather = [&](int lane) {
          Val g = fzero4;
          g = kb.Insert(g, 0, kb.Extract(b0, lane));
          g = kb.Insert(g, 1, kb.Extract(b1, lane));
          g = kb.Insert(g, 2, kb.Extract(b2, lane));
          g = kb.Insert(g, 3, kb.Extract(b3, lane));
          return g;
        };
        Val xj = gather(0), yj = gather(1), zj = gather(2), mj = gather(3);
        Val dx = xj - xi4, dy = yj - yi4, dz = zj - zi4;
        Val r2 = kb.Fma(dx, dx, kb.Fma(dy, dy, kb.Fma(dz, dz, eps4)));
        Val inv = kb.Rsqrt(r2);
        Val w = mj * inv * inv * inv;
        kb.Assign(ax4, kb.Fma(w, dx, ax4));
        kb.Assign(ay4, kb.Fma(w, dy, ay4));
        kb.Assign(az4, kb.Fma(w, dz, az4));
      });
      kb.Assign(ax, kb.VSum(ax4));
      kb.Assign(ay, kb.VSum(ay4));
      kb.Assign(az, kb.VSum(az4));
    } else {
      auto body = [&](Val j) {
        Val base_j = kb.Binary(Opcode::kMul, j, four);
        Val dx = kb.Load(bodies, base_j, 0) - xi;
        Val dy = kb.Load(bodies, base_j, 1) - yi;
        Val dz = kb.Load(bodies, base_j, 2) - zi;
        Val mj = kb.Load(bodies, base_j, 3);
        Val r2 = kb.Fma(dx, dx, kb.Fma(dy, dy, kb.Fma(dz, dz, eps)));
        Val inv = flavor == Flavor::kScalarRsqrt
                      ? kb.Rsqrt(r2)
                      : detail::FConst(kb, fp64_, 1.0) / kb.Sqrt(r2);
        Val w = mj * inv * inv * inv;
        kb.Assign(ax, kb.Fma(w, dx, ax));
        kb.Assign(ay, kb.Fma(w, dy, ay));
        kb.Assign(az, kb.Fma(w, dz, az));
      };
      if (flavor == Flavor::kScalarRsqrt) {
        kb.ForUnrolled("j", kb.ConstI(kir::I32(), 0), n, 1, 2, body);
      } else {
        kb.For("j", kb.ConstI(kir::I32(), 0), n, 1, body);
      }
    }

    // Semi-implicit Euler update.
    Val vx = kb.Fma(dt, ax, kb.Load(vel, base_i, 0));
    Val vy = kb.Fma(dt, ay, kb.Load(vel, base_i, 1));
    Val vz = kb.Fma(dt, az, kb.Load(vel, base_i, 2));
    kb.Store(out_vel, base_i, vx, 0);
    kb.Store(out_vel, base_i, vy, 1);
    kb.Store(out_vel, base_i, vz, 2);
    kb.Store(out_pos, base_i, kb.Fma(dt, vx, xi), 0);
    kb.Store(out_pos, base_i, kb.Fma(dt, vy, yi), 1);
    kb.Store(out_pos, base_i, kb.Fma(dt, vz, zi), 2);
    kb.Store(out_pos, base_i, kb.Load(bodies, base_i, 3), 3);
  }

  StatusOr<kir::Program> BuildKernel(const std::string& kernel_name,
                                     bool cpu_chunked, Flavor flavor,
                                     bool qualified) const {
    KernelBuilder kb(kernel_name);
    auto bodies = kb.ArgBuffer("bodies", ft(), ArgKind::kBufferRO, qualified,
                               qualified);
    auto vel = kb.ArgBuffer("vel", ft(), ArgKind::kBufferRO, qualified, qualified);
    auto out_pos = kb.ArgBuffer("out_pos", ft(), ArgKind::kBufferWO, qualified,
                                false);
    auto out_vel = kb.ArgBuffer("out_vel", ft(), ArgKind::kBufferWO, qualified,
                                false);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    if (cpu_chunked) {
      detail::Chunk chunk = detail::ThreadChunk(kb, n);
      kb.ParallelFor("i", chunk.start, chunk.end, 1, [&](Val i) {
        EmitBody(kb, bodies, vel, out_pos, out_vel, i, n, flavor);
      });
    } else {
      EmitBody(kb, bodies, vel, out_pos, out_vel, kb.GlobalId(0), n, flavor);
    }
    return kb.Build();
  }

  StatusOr<kir::Program> BuildGpuTunedKernel(bool vector, bool soa) const {
    if (!soa) {
      return BuildKernel("nbody_cl_tuned", false,
                         vector ? Flavor::kVectorGather : Flavor::kScalarRsqrt,
                         true);
    }
    // SOA layout: x/y/z/m as separate streams. The vector flavor needs no
    // transpose — partner coordinates vload4 directly, which is the "easier
    // applicability of vector optimizations" §V-A alludes to (and far fewer
    // live registers than the AOS gather).
    KernelBuilder kb("nbody_cl_tuned_soa");
    auto xs = kb.ArgBuffer("xs", ft(), ArgKind::kBufferRO, true, true);
    auto ys = kb.ArgBuffer("ys", ft(), ArgKind::kBufferRO, true, true);
    auto zs = kb.ArgBuffer("zs", ft(), ArgKind::kBufferRO, true, true);
    auto ms = kb.ArgBuffer("ms", ft(), ArgKind::kBufferRO, true, true);
    auto vel = kb.ArgBuffer("vel", ft(), ArgKind::kBufferRO, true, true);
    auto out_pos = kb.ArgBuffer("out_pos", ft(), ArgKind::kBufferWO, true,
                                false);
    auto out_vel = kb.ArgBuffer("out_vel", ft(), ArgKind::kBufferWO, true,
                                false);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);

    const kir::Type FT = kir::FloatType(fp64_);
    const kir::Type FT4 = kir::FloatType(fp64_, 4);
    Val i = kb.GlobalId(0);
    Val base_i = kb.Binary(Opcode::kMul, i, kb.ConstI(kir::I32(), 4));
    Val xi = kb.Load(xs, i);
    Val yi = kb.Load(ys, i);
    Val zi = kb.Load(zs, i);
    Val eps = detail::FConst(kb, fp64_, kEps);
    Val dt = detail::FConst(kb, fp64_, kDt);
    Val fzero = detail::FConst(kb, fp64_, 0.0);
    Val ax = kb.Var(FT, "ax"), ay = kb.Var(FT, "ay"), az = kb.Var(FT, "az");
    kb.Assign(ax, fzero);
    kb.Assign(ay, fzero);
    kb.Assign(az, fzero);

    if (vector) {
      Val xi4 = kb.Splat(xi, 4), yi4 = kb.Splat(yi, 4), zi4 = kb.Splat(zi, 4);
      Val eps4 = kb.Splat(eps, 4);
      Val fzero4 = detail::FConst(kb, fp64_, 0.0, 4);
      Val ax4 = kb.Var(FT4, "ax4"), ay4 = kb.Var(FT4, "ay4"),
          az4 = kb.Var(FT4, "az4");
      kb.Assign(ax4, fzero4);
      kb.Assign(ay4, fzero4);
      kb.Assign(az4, fzero4);
      kb.For("j", kb.ConstI(kir::I32(), 0), n, 4, [&](Val j) {
        Val xj = kb.Load(xs, j, 0, 4);
        Val yj = kb.Load(ys, j, 0, 4);
        Val zj = kb.Load(zs, j, 0, 4);
        Val mj = kb.Load(ms, j, 0, 4);
        Val dx = xj - xi4, dy = yj - yi4, dz = zj - zi4;
        Val r2 = kb.Fma(dx, dx, kb.Fma(dy, dy, kb.Fma(dz, dz, eps4)));
        Val inv = kb.Rsqrt(r2);
        Val w = mj * inv * inv * inv;
        kb.Assign(ax4, kb.Fma(w, dx, ax4));
        kb.Assign(ay4, kb.Fma(w, dy, ay4));
        kb.Assign(az4, kb.Fma(w, dz, az4));
      });
      kb.Assign(ax, kb.VSum(ax4));
      kb.Assign(ay, kb.VSum(ay4));
      kb.Assign(az, kb.VSum(az4));
    } else {
      kb.ForUnrolled("j", kb.ConstI(kir::I32(), 0), n, 1, 2, [&](Val j) {
        Val dx = kb.Load(xs, j) - xi;
        Val dy = kb.Load(ys, j) - yi;
        Val dz = kb.Load(zs, j) - zi;
        Val mj = kb.Load(ms, j);
        Val r2 = kb.Fma(dx, dx, kb.Fma(dy, dy, kb.Fma(dz, dz, eps)));
        Val inv = kb.Rsqrt(r2);
        Val w = mj * inv * inv * inv;
        kb.Assign(ax, kb.Fma(w, dx, ax));
        kb.Assign(ay, kb.Fma(w, dy, ay));
        kb.Assign(az, kb.Fma(w, dz, az));
      });
    }

    Val vx = kb.Fma(dt, ax, kb.Load(vel, base_i, 0));
    Val vy = kb.Fma(dt, ay, kb.Load(vel, base_i, 1));
    Val vz = kb.Fma(dt, az, kb.Load(vel, base_i, 2));
    kb.Store(out_vel, base_i, vx, 0);
    kb.Store(out_vel, base_i, vy, 1);
    kb.Store(out_vel, base_i, vz, 2);
    kb.Store(out_pos, base_i, kb.Fma(dt, vx, xi), 0);
    kb.Store(out_pos, base_i, kb.Fma(dt, vy, yi), 1);
    kb.Store(out_pos, base_i, kb.Fma(dt, vz, zi), 2);
    kb.Store(out_pos, base_i, kb.Load(ms, i), 3);
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) {
    StatusOr<kir::Program> program =
        BuildKernel("nbody_cpu", true, Flavor::kScalarDivSqrt, false);
    if (!program.ok()) return program.status();
    FpBuffer out_pos(fp64_, bodies_.size()), out_vel(fp64_, vel_.size());
    kir::LaunchConfig config;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{bodies_.data(), bodies_.bytes()},
         {vel_.data(), vel_.bytes()},
         {out_pos.data(), out_pos.bytes()},
         {out_vel.data(), out_vel.bytes()}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(n_))}, threads);
    if (!outcome.ok()) return outcome;
    detail::FinishValidation(&*outcome, Error(out_pos, out_vel), tol());
    return outcome;
  }

  StatusOr<RunOutcome> RunGpuVariant(Devices& devices, bool optimized) {
    ocl::Context& ctx = *devices.gpu;
    auto bodies = detail::MakeGpuBuffer(ctx, bodies_.data(), bodies_.bytes());
    if (!bodies.ok()) return bodies.status();
    auto vel = detail::MakeGpuBuffer(ctx, vel_.data(), vel_.bytes());
    if (!vel.ok()) return vel.status();
    auto out_pos = detail::MakeGpuBuffer(ctx, nullptr, bodies_.bytes());
    if (!out_pos.ok()) return out_pos.status();
    auto out_vel = detail::MakeGpuBuffer(ctx, nullptr, vel_.bytes());
    if (!out_vel.ok()) return out_vel.status();

    // Kernel rungs of the degradation ladder. The optimized ladder encodes
    // the paper's FP64 failure: the register-hungry vector-gather kernel
    // cannot launch (CL_OUT_OF_RESOURCES) and the benchmark falls back to
    // the mild optimization level (paper §V-A: the DP Opt results barely
    // beat the naive version). With fault injection on, transient enqueue
    // failures are retried and compiler faults fall down the same rungs.
    std::vector<fault::Rung<RunOutcome>> rungs;
    if (optimized) {
      rungs.push_back({"vector-gather kernel", [&] {
                         return TryGpu(devices, "nbody_cl_opt",
                                       Flavor::kVectorGather, true, *bodies,
                                       *vel, *out_pos, *out_vel);
                       }});
      rungs.push_back({"scalar rsqrt+unroll kernel", [&] {
                         return TryGpu(devices, "nbody_cl_opt_mild",
                                       Flavor::kScalarRsqrt, true, *bodies,
                                       *vel, *out_pos, *out_vel);
                       }});
    } else {
      rungs.push_back({"naive scalar kernel", [&] {
                         return TryGpu(devices, "nbody_cl",
                                       Flavor::kScalarDivSqrt, false, *bodies,
                                       *vel, *out_pos, *out_vel);
                       }});
    }
    StatusOr<RunOutcome> outcome = detail::RunKernelLadder(devices, rungs);
    if (!outcome.ok()) return outcome;

    FpBuffer got_pos(fp64_, bodies_.size()), got_vel(fp64_, vel_.size());
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **out_pos, got_pos.data(), got_pos.bytes()));
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **out_vel, got_vel.data(), got_vel.bytes()));
    detail::FinishValidation(&*outcome, Error(got_pos, got_vel), tol());
    return outcome;
  }

  StatusOr<RunOutcome> TryGpu(Devices& devices, const std::string& kernel_name,
                              Flavor flavor, bool tuned,
                              const std::shared_ptr<ocl::Buffer>& bodies,
                              const std::shared_ptr<ocl::Buffer>& vel,
                              const std::shared_ptr<ocl::Buffer>& out_pos,
                              const std::shared_ptr<ocl::Buffer>& out_vel) {
    StatusOr<kir::Program> program =
        BuildKernel(kernel_name, false, flavor, tuned);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;
    std::vector<kir::Program> kernels;
    kernels.push_back(*std::move(program));
    std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(kernels));
    MALI_RETURN_IF_ERROR(prog->Build());
    auto kernel = ctx.CreateKernel(prog, kernel_name);
    if (!kernel.ok()) return kernel.status();
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(0, bodies));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(1, vel));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(2, out_pos));
    MALI_RETURN_IF_ERROR((*kernel)->SetArgBuffer(3, out_vel));
    MALI_RETURN_IF_ERROR(
        (*kernel)->SetArgI32(4, static_cast<std::int32_t>(n_)));

    devices.gpu->device().FlushCaches();
    detail::GpuLaunch launch;
    launch.kernel = kernel->get();
    launch.global[0] = n_;
    const std::uint64_t tuned_local[3] = {detail::TunedLocalSize(n_, 64), 1, 1};
    launch.local = tuned ? tuned_local : nullptr;
    return detail::RunGpuLaunches(devices, {&launch, 1});
  }

  double Error(const FpBuffer& got_pos, const FpBuffer& got_vel) const {
    return std::max(detail::MaxRelError(got_pos, ref_pos_),
                    detail::MaxRelError(got_vel, ref_vel_));
  }

  std::uint32_t n_;
  FpBuffer bodies_, vel_;
  FpBuffer soa_x_, soa_y_, soa_z_, soa_m_;
  std::vector<double> ref_pos_, ref_vel_;
};

}  // namespace

std::unique_ptr<Benchmark> MakeNbody(const ProblemSizes& sizes) {
  return std::make_unique<NbodyBenchmark>(sizes);
}

}  // namespace malisim::hpc
