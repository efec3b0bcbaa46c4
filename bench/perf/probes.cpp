#include "probes.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "bench/paper_reference.h"
#include "common/prng.h"
#include "hpc/benchmark.h"
#include "kir/builder.h"
#include "kir/interp.h"
#include "mali/compiler.h"
#include "mali/t604_device.h"
#include "obs/recorder.h"
#include "sim/memory_system.h"
#include "stats.h"

namespace malisim::perf {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a, fed field by field.
class Fnv {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

const bench::PaperRow* PaperRowFor(const std::string& name, bool fp64) {
  const auto& rows = fp64 ? bench::Fig2bSpeedup() : bench::Fig2aSpeedup();
  const auto it = rows.find(name);
  return it == rows.end() ? nullptr : &it->second;
}

/// The paper's number for a GPU or OpenMP cell; NaN for Serial (1 by
/// definition, never compared) and for cells the paper could not run.
double PaperSpeedup(const bench::PaperRow& row, hpc::Variant v) {
  switch (v) {
    case hpc::Variant::kOpenMP:
      return row.openmp;
    case hpc::Variant::kOpenCL:
      return row.opencl;
    case hpc::Variant::kOpenCLOpt:
      return row.opencl_opt;
    default:
      return bench::kNaN;
  }
}

std::vector<harness::ExperimentConfig> SweepConfigs(const Workload& w,
                                                    std::uint64_t seed,
                                                    obs::Recorder* recorder) {
  std::vector<harness::ExperimentConfig> configs;
  for (const bool fp64 : {false, true}) {
    if (fp64 && !w.with_fp64) continue;
    harness::ExperimentConfig c;
    if (w.quick_sizes) c.sizes = hpc::ProblemSizes::Quick();
    c.fp64 = fp64;
    c.seed = seed;
    c.sim_threads = 1;
    c.recorder = recorder;
    configs.push_back(c);
  }
  return configs;
}

serve::ServeOptions ServeOptionsFor(const Workload& w) {
  serve::ServeOptions o;
  o.workers_per_shard = kServeWorkers;
  o.shards = 1;
  o.queue_depth = 4096;  // the whole batch fits: nothing is shed
  o.fault.rate = w.fault_rate;
  o.fault.seed = kServeFaultSeed;
  o.fault.watchdog_sec = w.watchdog_sec;
  // Breakers that never trip keep every job's route independent of which
  // worker ran what first, so the results repeat exactly.
  o.breaker.failure_threshold = 1000000;
  return o;
}

void AddTraceValues(const obs::Recorder& recorder, double wall_s,
                    ProbeResult* out) {
  const obs::HostProf& prof = *recorder.host_prof();
  const obs::HostProf::Snapshot snap = prof.TakeSnapshot();
  for (const auto& [name, phase] : kTracePhases) {
    const auto& stat = snap.phases[static_cast<std::size_t>(phase)];
    out->values[std::string("trace.") + name + ".share"] =
        static_cast<double>(stat.self_ns) / (wall_s * 1e9);
  }
  out->values["trace.attributed"] = prof.AttributedFraction(wall_s);
  std::uint64_t ops = 0;
  std::uint64_t work_items = 0;
  std::vector<double> modelled;
  const std::vector<obs::KernelRecord> kernels = recorder.kernels();
  for (const obs::KernelRecord& k : kernels) {
    for (const std::uint64_t n : k.opcode_counts) ops += n;
    work_items += k.work_items;
    modelled.push_back(k.seconds);
  }
  // Summed in sorted order so the total does not depend on record order.
  std::sort(modelled.begin(), modelled.end());
  double modelled_s = 0.0;
  for (const double s : modelled) modelled_s += s;
  out->values["trace.ops"] = static_cast<double>(ops);
  out->values["trace.work_items"] = static_cast<double>(work_items);
  out->values["trace.launches"] = static_cast<double>(kernels.size());
  out->values["trace.modelled_s"] = modelled_s;
}

// ---- kir and mali probe kernels -------------------------------------------

constexpr std::int32_t kTrips = 256;

kir::Program DotKernel(const char* name, std::uint8_t lanes) {
  kir::KernelBuilder kb(name);
  auto a = kb.ArgBuffer("a", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto b = kb.ArgBuffer("b", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto c = kb.ArgBuffer("c", kir::ScalarType::kF32, kir::ArgKind::kBufferWO);
  kir::Val acc = kb.Var(kir::F32(lanes), "acc");
  kb.Assign(acc, kb.ConstF(kir::F32(lanes), 0.0));
  kb.For("k", kb.ConstI(kir::I32(), 0), kb.ConstI(kir::I32(), kTrips), lanes,
         [&](kir::Val k) {
           kb.Assign(acc, kb.Fma(kb.Load(a, k, 0, lanes),
                                 kb.Load(b, k, 0, lanes), acc));
         });
  kb.Store(c, kb.GlobalId(0), lanes > 1 ? kb.VSum(acc) : acc);
  return *kb.Build();
}

kir::Program NbodyKernel() {
  kir::KernelBuilder kb("perf_nbody");
  auto pos = kb.ArgBuffer("pos", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32, kir::ArgKind::kBufferWO);
  kir::Val gid = kb.GlobalId(0);
  kir::Val xi = kb.Splat(kb.Load(pos, gid), 4);
  kir::Val eps = kb.ConstF(kir::F32(4), 1e-3);
  kir::Val acc = kb.Var(kir::F32(4), "acc");
  kb.Assign(acc, kb.ConstF(kir::F32(4), 0.0));
  kb.For("j", kb.ConstI(kir::I32(), 0), kb.ConstI(kir::I32(), kTrips), 4,
         [&](kir::Val j) {
           kir::Val d = kb.Load(pos, j, 0, 4) - xi;
           kb.Assign(acc, acc + d / kb.Sqrt(kb.Fma(d, d, eps)));
         });
  kb.Store(out, gid, kb.VSum(acc));
  return *kb.Build();
}

kir::Program ConvKernel() {
  kir::KernelBuilder kb("perf_conv");
  auto in = kb.ArgBuffer("in", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto w = kb.ArgBuffer("w", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32, kir::ArgKind::kBufferWO);
  kir::Val gid = kb.GlobalId(0);
  kir::Val v = kb.Splat(kb.Load(in, gid), 4);
  kir::Val acc = kb.Var(kir::F32(4), "acc");
  kb.Assign(acc, kb.ConstF(kir::F32(4), 0.0));
  kb.For("t", kb.ConstI(kir::I32(), 0), kb.ConstI(kir::I32(), kTrips), 1,
         [&](kir::Val t) {
           kb.Assign(acc, kb.Fma(v, kb.Splat(kb.Load(w, t), 4), acc));
         });
  kb.Store(out, gid, kb.VSum(acc));
  return *kb.Build();
}

/// c[i] = a[i] + b[i]: the paper's vecop, one element per work-item.
kir::Program VecopKernel() {
  kir::KernelBuilder kb("perf_vecop");
  auto a = kb.ArgBuffer("a", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto b = kb.ArgBuffer("b", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto c = kb.ArgBuffer("c", kir::ScalarType::kF32, kir::ArgKind::kBufferWO);
  kir::Val i = kb.GlobalId(0);
  kb.Store(c, i, kb.Load(a, i) + kb.Load(b, i));
  return *kb.Build();
}

/// Naive n x n matrix product, one output element per work-item.
kir::Program MatmulKernel(std::int32_t n) {
  kir::KernelBuilder kb("perf_dmmm");
  auto a = kb.ArgBuffer("a", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto b = kb.ArgBuffer("b", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto c = kb.ArgBuffer("c", kir::ScalarType::kF32, kir::ArgKind::kBufferWO);
  kir::Val col = kb.GlobalId(0);
  kir::Val row = kb.GlobalId(1);
  kir::Val nv = kb.ConstI(kir::I32(), n);
  kir::Val acc = kb.Var(kir::F32(), "acc");
  kb.Assign(acc, kb.ConstF(kir::F32(), 0.0));
  kb.For("k", kb.ConstI(kir::I32(), 0), nv, 1, [&](kir::Val k) {
    kb.Assign(acc, kb.Fma(kb.Load(a, row * nv + k), kb.Load(b, k * nv + col),
                          acc));
  });
  kb.Store(c, row * nv + col, acc);
  return *kb.Build();
}

/// Host buffers for a kernel launch, each at its own simulated address.
struct Buffers {
  std::vector<std::vector<float>> data;

  Buffers(std::size_t count, std::size_t elems, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<float> v(elems);
      for (float& x : v) x = static_cast<float>(rng.NextDouble(0.5, 1.5));
      data.push_back(std::move(v));
    }
  }

  kir::Bindings Bind() {
    kir::Bindings b;
    std::uint64_t addr = 0x10000000;
    for (std::vector<float>& v : data) {
      b.buffers.push_back({reinterpret_cast<std::byte*>(v.data()), addr,
                           v.size() * sizeof(float)});
      addr += 0x10000000;
    }
    return b;
  }
};

kir::LaunchConfig Launch1D(std::uint64_t items, std::uint64_t local) {
  kir::LaunchConfig c;
  c.global_size = {items, 1, 1};
  c.local_size = {local, 1, 1};
  return c;
}

/// Median seconds of `reps` calls to `fn` (which returns false on error).
template <typename Fn>
StatusOr<double> MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    MALI_RETURN_IF_ERROR(fn());
    times.push_back(SecondsSince(t0));
  }
  return Summarize(times).median;
}

Status ProbeKir(std::uint64_t seed, ProbeResult* out) {
  struct Shape {
    const char* name;
    kir::Program program;
    std::size_t buffers;
    std::uint64_t items;
    int launches;
  };
  const Shape shapes[] = {
      {"dmmm", DotKernel("perf_dot4", 4), 3, 256, 40},
      {"dmmm_base", DotKernel("perf_dot", 1), 3, 256, 20},
      {"nbody", NbodyKernel(), 2, 256, 20},
      {"conv", ConvKernel(), 3, 256, 20},
      {"vecop", VecopKernel(), 3, 1u << 16, 20},
  };
  for (const Shape& s : shapes) {
    Buffers buffers(s.buffers, std::max<std::uint64_t>(s.items, 1024), seed);
    std::uint64_t ops = 0;
    auto batch = [&]() -> Status {
      ops = 0;
      for (int i = 0; i < s.launches; ++i) {
        auto run = kir::RunProgram(s.program, Launch1D(s.items, 64),
                                   buffers.Bind());
        if (!run.ok()) return run.status();
        ops += run->ops.Total();
      }
      return Status::Ok();
    };
    auto sec = MedianSeconds(5, batch);
    if (!sec.ok()) return sec.status();
    out->values[std::string("kir.") + s.name + ".mops"] =
        static_cast<double>(ops) / *sec / 1e6;
  }
  return Status::Ok();
}

Status ProbeMemory(std::uint64_t seed, ProbeResult* out) {
  const mali::MaliMemoryConfig memory;
  const sim::HierarchyConfig geometry{/*has_l1=*/true,
                                      mali::MaliTimingParams().num_cores,
                                      memory.l1, memory.l2};
  constexpr std::size_t kAccesses = 1u << 20;
  constexpr std::uint64_t kBase = 0x40000000;
  struct Stream {
    const char* name;
    std::uint32_t size;  // bytes per access
    bool write;
    std::uint64_t random_span;  // 0 = unit stride
    std::vector<std::uint64_t> addrs;
  };
  std::vector<Stream> streams = {
      {"stream", 16, false, 0, {}},
      // 512 KiB working set: misses the 8 KiB L1, fits the 1 MiB L2.
      {"reuse", 16, false, 512u << 10, {}},
      {"gather", 4, false, 64u << 20, {}},
      {"writeback", 16, true, 0, {}}};
  Xoshiro256 rng(seed);
  for (Stream& s : streams) {
    s.addrs.resize(kAccesses);
    for (std::size_t i = 0; i < kAccesses; ++i) {
      const std::uint64_t offset =
          s.random_span == 0 ? i * s.size : rng.NextU64() % s.random_span;
      s.addrs[i] = kBase + offset / s.size * s.size;
    }
  }
  for (const Stream& s : streams) {
    std::vector<double> ns_per_access;
    std::uint64_t counts[4] = {};
    for (int rep = 0; rep < 3; ++rep) {
      sim::MemoryHierarchy h(geometry);
      std::uint64_t l1_miss = 0;
      std::uint64_t l2_miss = 0;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kAccesses; ++i) {
        // Work-group-sized runs of accesses per core, round-robin.
        const auto core =
            static_cast<std::uint32_t>((i / 256) % geometry.num_cores);
        const sim::AccessOutcome o = h.Access(core, s.addrs[i], s.size, s.write);
        l1_miss += o.l1_misses;
        l2_miss += o.l2_misses;
      }
      ns_per_access.push_back(SecondsSince(t0) * 1e9 / kAccesses);
      const std::uint64_t now[4] = {l1_miss, l2_miss, h.dram_fill_lines(),
                                    h.dram_writeback_lines()};
      if (rep > 0 && !std::equal(now, now + 4, counts)) {
        return InternalError(std::string("mem.") + s.name +
                             ": counts differ between identical replays");
      }
      std::copy(now, now + 4, counts);
    }
    const std::string p = std::string("mem.") + s.name + ".";
    out->values[p + "ns"] = Summarize(ns_per_access).median;
    out->values[p + "l1_miss"] = static_cast<double>(counts[0]);
    out->values[p + "l2_miss"] = static_cast<double>(counts[1]);
    out->values[p + "dram_fill_lines"] = static_cast<double>(counts[2]);
    out->values[p + "dram_wb_lines"] = static_cast<double>(counts[3]);
  }
  return Status::Ok();
}

Status ProbeMali(std::uint64_t seed, ProbeResult* out) {
  const hpc::ProblemSizes full;
  const mali::MaliTimingParams timing;
  const mali::MaliCompilerParams compiler;
  struct Case {
    const char* name;
    kir::Program program;
    kir::LaunchConfig launch;
    std::size_t elems;
  };
  const auto n = static_cast<std::int32_t>(full.dmmm_n);
  kir::LaunchConfig matmul_launch;
  matmul_launch.work_dim = 2;
  matmul_launch.global_size = {full.dmmm_n, full.dmmm_n, 1};
  matmul_launch.local_size = {16, 16, 1};
  const Case cases[] = {
      {"vecop", VecopKernel(), Launch1D(full.vecop_n, 64), full.vecop_n},
      {"dmmm", MatmulKernel(n), matmul_launch,
       static_cast<std::size_t>(full.dmmm_n) * full.dmmm_n},
  };
  std::vector<double> compile_us;
  for (const Case& c : cases) {
    for (int i = 0; i < 20; ++i) {
      const auto t0 = Clock::now();
      auto compiled = mali::CompileForMali(c.program, timing, compiler);
      compile_us.push_back(SecondsSince(t0) * 1e6);
      if (!compiled.ok()) return compiled.status();
    }
    auto compiled = mali::CompileForMali(c.program, timing, compiler);
    if (!compiled.ok()) return compiled.status();
    Buffers buffers(3, c.elems, seed);
    auto device_s = MedianSeconds(3, [&]() -> Status {
      mali::MaliT604Device device(timing);
      return device.Run(*compiled, c.launch, buffers.Bind()).status();
    });
    if (!device_s.ok()) return device_s.status();
    auto vm_s = MedianSeconds(3, [&]() -> Status {
      return kir::RunProgram(c.program, c.launch, buffers.Bind()).status();
    });
    if (!vm_s.ok()) return vm_s.status();
    const std::string p = std::string("mali.") + c.name + ".";
    out->values[p + "s"] = *device_s;
    out->values[p + "outside_vm"] = 1.0 - *vm_s / *device_s;
  }
  out->values["mali.compile.us"] = Summarize(compile_us).median;
  return Status::Ok();
}

Status ProbeSetup(std::uint64_t seed, ProbeResult* out) {
  const std::pair<const char*, hpc::ProblemSizes> sizes[] = {
      {"quick", hpc::ProblemSizes::Quick()}, {"full", hpc::ProblemSizes()}};
  for (const auto& [label, s] : sizes) {
    double total = 0.0;
    for (const bool fp64 : {false, true}) {
      for (const std::string& name : hpc::RegisteredBenchmarks()) {
        std::unique_ptr<hpc::Benchmark> b = hpc::CreateBenchmark(name, s);
        if (b == nullptr) return NotFoundError("benchmark " + name);
        const auto t0 = Clock::now();
        MALI_RETURN_IF_ERROR(b->Setup(fp64, seed));
        total += SecondsSince(t0);
      }
    }
    out->values[std::string("hpc.setup.") + label + ".s"] = total;
  }
  return Status::Ok();
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string SweepDigest(const std::vector<harness::BenchmarkResults>& results) {
  Fnv h;
  for (const harness::BenchmarkResults& r : results) {
    h.Str(r.name);
    for (const hpc::Variant v : hpc::kAllVariants) {
      const harness::VariantResult& c = r.Get(v);
      h.U64((c.available ? 1u : 0u) | (c.validated ? 2u : 0u));
      h.F64(c.seconds);
      h.F64(c.power_mean_w);
      h.F64(c.power_stddev_w);
      h.F64(c.energy_j);
      h.F64(c.max_rel_error);
      h.Str(c.degraded_to);
    }
  }
  return h.Hex();
}

double PaperFitError(const std::vector<harness::BenchmarkResults>& results,
                     bool fp64, int* cells) {
  double sum = 0.0;
  int n = 0;
  for (const harness::BenchmarkResults& r : results) {
    const bench::PaperRow* row = PaperRowFor(r.name, fp64);
    if (row == nullptr) continue;
    for (const hpc::Variant v : hpc::kAllVariants) {
      const double paper = PaperSpeedup(*row, v);
      const double model = r.SpeedupVsSerial(v);
      if (std::isnan(paper) || model <= 0.0) continue;
      sum += std::fabs(std::log(model / paper));
      ++n;
    }
  }
  if (cells != nullptr) *cells = n;
  return n == 0 ? 0.0 : std::exp(sum / n) - 1.0;
}

Status CheckCells(const std::vector<harness::BenchmarkResults>& results,
                  bool fp64) {
  for (const harness::BenchmarkResults& r : results) {
    const bench::PaperRow* row = PaperRowFor(r.name, fp64);
    for (const hpc::Variant v : hpc::kAllVariants) {
      const harness::VariantResult& c = r.Get(v);
      const std::string cell = r.name + "/" +
                               std::string(hpc::VariantName(v)) +
                               (fp64 ? "/fp64" : "/fp32");
      if (c.available && !c.validated) {
        return InternalError(cell + ": output failed validation");
      }
      const bool paper_missing =
          row != nullptr && std::isnan(PaperSpeedup(*row, v));
      if (!c.available && !paper_missing) {
        return InternalError(cell + ": unavailable (" + c.unavailable_reason +
                             ")");
      }
    }
  }
  return Status::Ok();
}

Status CheckServe(const serve::ServeReport& report, std::uint64_t submitted) {
  if (!report.Consistent()) {
    return InternalError("serve report violates the zero-lost-jobs invariant");
  }
  if (report.submitted != submitted) {
    return InternalError("serve report counts " +
                         std::to_string(report.submitted) + " submissions, " +
                         std::to_string(submitted) + " were made");
  }
  return Status::Ok();
}

Status CheckRepeats(const std::vector<ProbeResult>& reps,
                    const std::vector<std::string>& exact) {
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].digest != reps[0].digest) {
      return InternalError("modelled-result digest differs between "
                           "repetitions: " + reps[0].digest + " vs " +
                           reps[i].digest);
    }
    for (const std::string& name : exact) {
      const auto a = reps[0].values.find(name);
      const auto b = reps[i].values.find(name);
      const bool has_a = a != reps[0].values.end();
      const bool has_b = b != reps[i].values.end();
      if (has_a != has_b || (has_a && a->second != b->second)) {
        return InternalError(name + " differs between repetitions");
      }
    }
  }
  return Status::Ok();
}

namespace {

StatusOr<ProbeResult> RunSweep(const Workload& w, std::uint64_t seed,
                               RepMode mode, ReadyFn ready) {
  std::unique_ptr<obs::Recorder> recorder;
  if (mode == RepMode::kTraced) {
    obs::ObsOptions options;
    options.enabled = true;
    options.host_prof = true;
    recorder = std::make_unique<obs::Recorder>(options);
  }
  std::vector<std::unique_ptr<harness::ExperimentRunner>> runners;
  for (const harness::ExperimentConfig& c :
       SweepConfigs(w, seed, recorder.get())) {
    runners.push_back(std::make_unique<harness::ExperimentRunner>(c));
  }
  ready();
  if (mode == RepMode::kSetUpOnly) return ProbeResult{};

  ProbeResult out;
  std::vector<std::vector<harness::BenchmarkResults>> by_precision;
  const auto t0 = Clock::now();
  for (const auto& runner : runners) {
    std::vector<harness::BenchmarkResults> results;
    for (const std::string& name : hpc::RegisteredBenchmarks()) {
      const auto tb = Clock::now();
      StatusOr<harness::BenchmarkResults> r = runner->RunBenchmark(name);
      out.values["harness." + name + ".s"] += SecondsSince(tb);
      if (!r.ok()) return r.status();
      results.push_back(std::move(*r));
    }
    by_precision.push_back(std::move(results));
  }
  const double host_s = SecondsSince(t0);
  out.values["host_s"] = host_s;

  std::string digests;
  for (std::size_t p = 0; p < runners.size(); ++p) {
    const bool fp64 = runners[p]->config().fp64;
    MALI_RETURN_IF_ERROR(CheckCells(by_precision[p], fp64));
    for (const harness::BenchmarkResults& r : by_precision[p]) {
      for (const hpc::Variant v : hpc::kAllVariants) {
        ++out.attempted;
        if (r.Get(v).available) ++out.completed;
      }
    }
    digests += SweepDigest(by_precision[p]);
    out.values[fp64 ? "paper_fit_err.fp64" : "paper_fit_err.fp32"] =
        PaperFitError(by_precision[p], fp64, nullptr);
  }
  out.digest = digests;
  out.values["jobs_per_s"] = static_cast<double>(out.completed) / host_s;
  if (recorder != nullptr) {
    recorder->Seal();
    AddTraceValues(*recorder, host_s, &out);
  }
  return out;
}

StatusOr<ProbeResult> RunServe(const Workload& w, std::uint64_t seed,
                               RepMode mode, ReadyFn ready) {
  const std::vector<serve::JobSpec> jobs = serve::GenerateLoad(w.jobs, seed);
  serve::ServeEngine engine(ServeOptionsFor(w));
  ready();
  // The engine's destructor shuts its idle workers down.
  if (mode == RepMode::kSetUpOnly) return ProbeResult{};

  double submit_s = 0.0;
  const auto t0 = Clock::now();
  for (const serve::JobSpec& job : jobs) {
    const auto ts = Clock::now();
    // A refused job is still accounted (as kShed) in the report.
    (void)engine.Submit(job);
    submit_s += SecondsSince(ts);
  }
  const serve::ServeReport report = engine.Drain();
  const double host_s = SecondsSince(t0);
  MALI_RETURN_IF_ERROR(CheckServe(report, jobs.size()));

  ProbeResult out;
  out.attempted = report.submitted;
  // Completed jobs come from the state counts. ServeReport::jobs_per_host_sec
  // divides every result, shed ones included, by the elapsed time
  // (src/serve/engine.cpp:423), so it is not used here.
  out.completed = report.count(serve::JobState::kOk) +
                  report.count(serve::JobState::kDegraded);
  out.failed = report.count(serve::JobState::kShed) +
               report.count(serve::JobState::kDeadlineExceeded) +
               report.count(serve::JobState::kFailed);
  out.values["host_s"] = host_s;
  out.values["jobs_per_s"] = static_cast<double>(out.completed) / host_s;
  out.values["serve.submit.us"] =
      jobs.empty() ? 0.0 : submit_s * 1e6 / static_cast<double>(jobs.size());
  out.values["serve.compile_cache.hits"] =
      static_cast<double>(report.compile_cache_stats.hits);
  out.values["serve.compile_cache.misses"] =
      static_cast<double>(report.compile_cache_stats.misses);
  const auto counter = [&](const char* name) {
    const auto it = report.metrics.counters.find(name);
    return it == report.metrics.counters.end() ? 0.0 : it->second;
  };
  out.values["serve.rung_attempts"] = counter("serve/rung_attempts");
  out.values["serve.retries"] = counter("serve/retries");
  out.values["serve.degraded"] =
      static_cast<double>(report.count(serve::JobState::kDegraded));
  const auto latency =
      report.metrics.histograms.find("serve_host/job_latency_sec");
  if (latency != report.metrics.histograms.end() && latency->second.count > 0) {
    // The histogram's sum is exact; its quantiles are bucket edges.
    out.values["serve.service_mean.ms"] =
        latency->second.sum / static_cast<double>(latency->second.count) * 1e3;
    out.values["serve.worker_busy"] =
        latency->second.sum / (kServeWorkers * host_s);
  }

  Fnv h;
  for (const std::uint64_t c : report.state_counts) h.U64(c);
  for (const serve::JobResult& r : report.results) {
    h.U64(r.id);
    h.U64(static_cast<std::uint64_t>(r.state));
    h.U64(static_cast<std::uint64_t>(r.ran));
    h.F64(r.seconds);
    h.F64(r.energy_j);
    h.F64(r.consumed_sec);
    h.U64(static_cast<std::uint64_t>(r.attempts));
    h.U64(static_cast<std::uint64_t>(r.retries));
  }
  out.digest = h.Hex();
  return out;
}

}  // namespace

StatusOr<ProbeResult> RunWorkload(const Workload& w, std::uint64_t seed,
                                  RepMode mode, ReadyFn ready) {
  return w.serve ? RunServe(w, seed, mode, ready)
                 : RunSweep(w, seed, mode, ready);
}

StatusOr<ProbeResult> RunLayerProbes(std::uint64_t seed) {
  ProbeResult out;
  MALI_RETURN_IF_ERROR(ProbeSetup(seed, &out));
  MALI_RETURN_IF_ERROR(ProbeKir(seed, &out));
  MALI_RETURN_IF_ERROR(ProbeMemory(seed, &out));
  MALI_RETURN_IF_ERROR(ProbeMali(seed, &out));
  return out;
}

}  // namespace malisim::perf
