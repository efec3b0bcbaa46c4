#include "bench/bench_common.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/paper_reference.h"
#include "common/log.h"
#include "common/table.h"
#include "common/version.h"
#include "fault/fault_plan.h"
#include "harness/trace.h"
#include "obs/bench_report.h"
#include "obs/host_prof.h"
#include "obs/metrics.h"
#include "harness/tuning.h"
#include "power/power_model.h"

namespace malisim::bench {

namespace {

/// The value of a `--flag=value` argument. Exits with status 2 unless the
/// whole value parses as a T, so `--seed=abc` never quietly runs seed 0.
template <typename T>
T FlagValue(const std::string& arg) {
  const std::size_t eq = arg.find('=');
  const char* last = arg.data() + arg.size();
  T value{};
  const auto [end, error] = std::from_chars(arg.data() + eq + 1, last, value);
  if (error != std::errc() || end != last) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", arg.c_str() + eq + 1,
                 arg.substr(0, eq).c_str());
    std::exit(2);
  }
  return value;
}

/// Runs all nine benchmarks at one precision. `recorder`, when non-null,
/// is attached to the harness for the sweep.
StatusOr<std::vector<harness::BenchmarkResults>> RunSweep(
    const BenchOptions& options, bool fp64, obs::Recorder* recorder) {
  harness::ExperimentConfig config;
  config.sizes = options.sizes;
  config.fp64 = fp64;
  config.seed = options.seed;
  config.sim_threads = options.threads;
  config.device = options.device;
  config.hetero_ratio = options.hetero_ratio;
  config.fault = options.fault;
  config.recorder = recorder;

  if (options.tune) {
    // Autotune every benchmark's §III space up front; winners drive the
    // OpenCL-opt column through RunTuned. A failed search (e.g. every
    // amcd FP64 candidate hitting the compiler erratum) keeps the paper
    // kernel for that benchmark — the missing bar stays missing.
    obs::HostProf::PhaseSpan tune_span(
        recorder != nullptr ? recorder->host_prof() : nullptr,
        obs::HostPhase::kTune);
    sim::TuningCache cache;
    if (!options.tune_cache.empty()) {
      cache = sim::TuningCache::LoadFileOrEmpty(options.tune_cache);
    }
    for (const std::string& name : hpc::RegisteredBenchmarks()) {
      harness::TuningRequest request;
      request.benchmark = name;
      request.sizes = options.sizes;
      request.fp64 = fp64;
      request.seed = options.seed;
      request.device = options.device;
      request.fault = options.fault;
      request.tuner.objective = options.tune_objective;
      request.tuner.seed = options.seed;
      request.tuner.threads = options.threads;
      request.cache = options.tune_cache.empty() ? nullptr : &cache;
      StatusOr<harness::TuningReport> report =
          harness::TuneBenchmark(request);
      if (!report.ok()) {
        MALI_LOG_WARN("tuning %s (%s) failed: %s; keeping the paper kernel",
                      name.c_str(), fp64 ? "fp64" : "fp32",
                      report.status().ToString().c_str());
        continue;
      }
      config.tuned_configs[name] = report->result.best;
      MALI_LOG_INFO("tuned %s (%s): %s%s", name.c_str(),
                    fp64 ? "fp64" : "fp32",
                    report->result.best.CanonicalKey().c_str(),
                    report->result.from_cache ? " [cache]" : "");
    }
    if (!options.tune_cache.empty()) {
      const Status saved = cache.SaveFile(options.tune_cache);
      if (!saved.ok()) {
        MALI_LOG_WARN("could not save tuning cache %s: %s",
                      options.tune_cache.c_str(),
                      saved.ToString().c_str());
      }
    }
  }

  harness::ExperimentRunner runner(config);
  return runner.RunAll();
}

}  // namespace

BenchOptions ParseOptions(int argc, char** argv,
                          std::vector<std::string>* experiments) {
  // MALISIM_LOG_LEVEL (debug/info/warn/error/off) sets the default level.
  InitLogLevelFromEnv();
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      experiments->push_back(arg);
    } else if (arg == "--fp32") {
      options.run_fp64 = false;
    } else if (arg == "--fp64") {
      options.run_fp32 = false;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_path = arg.substr(8);
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      options.bench_json = arg.substr(13);
    } else if (arg.rfind("--device=", 0) == 0) {
      if (!sim::ParseBackend(arg.substr(9), &options.device)) {
        std::fprintf(stderr, "unknown --device '%s' (mali|a15|hetero)\n",
                     arg.c_str() + 9);
        std::exit(2);
      }
    } else if (arg.rfind("--hetero-ratio=", 0) == 0) {
      options.hetero_ratio = FlagValue<double>(arg);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = FlagValue<std::uint64_t>(arg);
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = FlagValue<int>(arg);
      if (options.threads < 0) options.threads = 0;  // 0 = all host cores
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      options.fault.seed = FlagValue<std::uint64_t>(arg);
    } else if (arg.rfind("--fault-rate=", 0) == 0) {
      options.fault.rate = FlagValue<double>(arg);
    } else if (arg.rfind("--fault-spec=", 0) == 0) {
      options.fault.spec = arg.substr(13);
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      options.fault.watchdog_sec = FlagValue<double>(arg);
    } else if (arg == "--tune") {
      options.tune = true;
    } else if (arg.rfind("--tune=", 0) == 0) {
      options.tune = true;
      if (!sim::ParseObjective(arg.substr(7), &options.tune_objective)) {
        std::fprintf(stderr, "unknown --tune objective '%s' (time|energy|edp)\n",
                     arg.c_str() + 7);
        std::exit(2);
      }
    } else if (arg.rfind("--tune-cache=", 0) == 0) {
      options.tune_cache = arg.substr(13);
    } else if (arg.rfind("--log-level=", 0) == 0) {
      // After InitLogLevelFromEnv above, so the flag wins over the env var.
      if (!ApplyLogLevelFlag(arg.substr(12))) {
        std::fprintf(stderr,
                     "unknown --log-level '%s' (debug|info|warn|error|off)\n",
                     arg.c_str() + 12);
        std::exit(2);
      }
    } else if (arg == "--quick") {
      options.sizes = hpc::ProblemSizes::Quick();
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

const SweepData* Sweeps::Get(bool fp64) {
  const int index = fp64 ? 1 : 0;
  if (sweeps_[index].has_value()) return &*sweeps_[index];
  if (failed_[index]) return nullptr;
  SweepData sweep;
  sweep.fp64 = fp64;
  if (!options_.bench_json.empty()) {
    sweep.recorder = std::make_shared<obs::Recorder>();
  }
  const auto host_start = std::chrono::steady_clock::now();
  auto results = RunSweep(options_, fp64, sweep.recorder.get());
  sweep.host_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  if (!results.ok()) {
    std::fprintf(stderr, "error: %s\n", results.status().ToString().c_str());
    failed_[index] = true;
    return nullptr;
  }
  sweep.results = std::move(*results);
  if (!options_.trace_path.empty()) {
    harness::TraceBuilder trace;
    for (const harness::BenchmarkResults& r : sweep.results) {
      trace.AddBenchmark(r);
    }
    const std::string path =
        options_.trace_path + (fp64 ? ".fp64.json" : ".fp32.json");
    const Status written = trace.WriteTo(path);
    if (written.ok()) {
      std::fprintf(stderr, "trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "trace error: %s\n", written.ToString().c_str());
    }
  }
  sweeps_[index] = std::move(sweep);
  return &*sweeps_[index];
}

void PrintTable(const Table& table, bool csv) {
  std::printf("%s\n", csv ? table.ToCsv().c_str() : table.ToAscii().c_str());
}

namespace {

/// Short slug for paper-delta keys: "openmp" / "opencl" / "opencl_opt".
const char* VariantSlug(hpc::Variant v) {
  switch (v) {
    case hpc::Variant::kSerial:
      return "serial";
    case hpc::Variant::kOpenMP:
      return "openmp";
    case hpc::Variant::kOpenCL:
      return "opencl";
    case hpc::Variant::kOpenCLOpt:
      return "opencl_opt";
    case hpc::Variant::kHetero:
      return "hetero";
  }
  return "unknown";
}

void AppendCells(const SweepData& sweep, std::vector<obs::BenchCell>* cells) {
  const char* precision = sweep.fp64 ? "fp64" : "fp32";
  for (const harness::BenchmarkResults& r : sweep.results) {
    for (hpc::Variant v : hpc::kAllVariantsWithHetero) {
      const harness::VariantResult& vr = r.Get(v);
      // A hetero cell that was never stood up (single-device run) is not a
      // measurement — skipping it keeps default records byte-identical to
      // pre-hetero builds.
      if (v == hpc::Variant::kHetero && !vr.available &&
          vr.unavailable_reason.empty()) {
        continue;
      }
      obs::BenchCell cell;
      cell.benchmark = r.name;
      cell.variant = std::string(hpc::VariantName(v));
      cell.precision = precision;
      cell.available = vr.available;
      cell.unavailable_reason = vr.unavailable_reason;
      if (vr.available) {
        cell.seconds = vr.seconds;
        cell.power_mean_w = vr.power_mean_w;
        cell.power_stddev_w = vr.power_stddev_w;
        cell.energy_j = vr.energy_j;
        cell.edp_js = vr.energy_j * vr.seconds;
        cell.speedup_vs_serial = r.SpeedupVsSerial(v);
        cell.power_vs_serial = r.PowerVsSerial(v);
        cell.energy_vs_serial = r.EnergyVsSerial(v);
        cell.failed_repetitions = vr.failed_repetitions;
        cell.degraded_to = vr.degraded_to;
        cell.validated = vr.validated;
      }
      cells->push_back(std::move(cell));
    }
  }
}

void AppendPaperDeltas(
    const SweepData& sweep, const std::string& figure,
    const std::map<std::string, PaperRow>& paper,
    double (harness::BenchmarkResults::*metric)(hpc::Variant) const,
    std::vector<obs::PaperDelta>* deltas) {
  const char* precision = sweep.fp64 ? "fp64" : "fp32";
  for (const harness::BenchmarkResults& r : sweep.results) {
    const auto it = paper.find(r.name);
    if (it == paper.end()) continue;
    const struct {
      double paper_v;
      hpc::Variant v;
    } pairs[] = {{it->second.openmp, hpc::Variant::kOpenMP},
                 {it->second.opencl, hpc::Variant::kOpenCL},
                 {it->second.opencl_opt, hpc::Variant::kOpenCLOpt}};
    for (const auto& p : pairs) {
      if (std::isnan(p.paper_v)) continue;
      const double model_v = (r.*metric)(p.v);
      if (model_v <= 0.0) continue;
      deltas->push_back({figure + "/" + r.name + "/" + VariantSlug(p.v) +
                             "/" + precision,
                         p.paper_v, model_v});
    }
  }
}

std::string U64(std::uint64_t v) { return std::to_string(v); }

/// Order-independent sums over the sweep's kernel records (deterministic
/// half of the sim_throughput record) plus the measured host rates.
obs::SimThroughput ComputeThroughput(const SweepData& sweep) {
  obs::SimThroughput t;
  t.sweep = sweep.fp64 ? "fp64" : "fp32";
  // Kernel record order may vary with host thread count, so the modelled
  // total is summed in sorted order to keep it byte-identical.
  std::vector<double> modelled;
  for (const obs::KernelRecord& k : sweep.recorder->kernels()) {
    t.work_items += k.work_items;
    for (std::uint64_t n : k.opcode_counts) t.opcodes += n;
    ++t.launches;
    modelled.push_back(k.seconds);
  }
  std::sort(modelled.begin(), modelled.end());
  for (double sec : modelled) t.modelled_sec += sec;
  t.host_sec = sweep.host_sec;
  if (sweep.host_sec > 0.0) {
    t.work_items_per_host_sec =
        static_cast<double>(t.work_items) / sweep.host_sec;
    t.opcodes_per_host_sec = static_cast<double>(t.opcodes) / sweep.host_sec;
  }
  if (t.modelled_sec > 0.0) {
    t.host_sec_per_modelled_sec = sweep.host_sec / t.modelled_sec;
  }
  return t;
}

}  // namespace

Status Sweeps::WriteBenchJson(const std::string& bench_name) const {
  const BenchOptions& options = options_;
  if (options.bench_json.empty()) return Status::Ok();
  if (!sweeps_[0].has_value() && !sweeps_[1].has_value()) {
    return FailedPreconditionError(
        "the record holds the figure sweeps, and no figure view ran");
  }

  StatusOr<fault::FaultPlan> plan = fault::FaultPlan::FromOptions(options.fault);
  if (!plan.ok()) return plan.status();

  obs::BenchReportMeta meta;
  meta.name = bench_name;
  meta.git_sha = GitSha();
  {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, plan->Hash());
    meta.fault_plan_hash = hex;
  }
  // Everything that shapes the modelled numbers — and nothing that must
  // not (host threads, output paths): the record is byte-identical across
  // --threads by contract.
  meta.options = {
      {"seed", U64(options.seed)},
      {"fault_seed", U64(options.fault.seed)},
      {"fault_rate", FormatDouble(options.fault.rate, 6)},
      {"fault_spec", options.fault.spec},
      {"watchdog_sec", FormatDouble(options.fault.watchdog_sec, 6)},
      {"sizes",
       "spmv_rows=" + U64(options.sizes.spmv_rows) +
           ",spmv_nnz=" + U64(options.sizes.spmv_avg_nnz_per_row) +
           ",vecop_n=" + U64(options.sizes.vecop_n) +
           ",hist_n=" + U64(options.sizes.hist_n) +
           ",hist_bins=" + U64(options.sizes.hist_bins) +
           ",stencil_dim=" + U64(options.sizes.stencil_dim) +
           ",red_n=" + U64(options.sizes.red_n) +
           ",amcd_chains=" + U64(options.sizes.amcd_chains) +
           ",amcd_atoms=" + U64(options.sizes.amcd_atoms) +
           ",amcd_steps=" + U64(options.sizes.amcd_steps) +
           ",nbody_n=" + U64(options.sizes.nbody_n) +
           ",conv_dim=" + U64(options.sizes.conv_dim) +
           ",dmmm_n=" + U64(options.sizes.dmmm_n)},
  };
  // Backend keys only appear off the default device, so records emitted by
  // historical builds and by this build's default runs stay byte-identical.
  if (options.device != sim::BackendKind::kMali) {
    meta.options.emplace_back("device",
                              std::string(sim::BackendName(options.device)));
    meta.options.emplace_back("hetero_ratio",
                              FormatDouble(options.hetero_ratio, 6));
  }

  std::vector<obs::BenchCell> cells;
  std::vector<obs::PaperDelta> deltas;
  std::vector<obs::SimThroughput> throughput;
  obs::MetricsAggregator aggregator;
  const power::PowerModel model;
  for (const std::optional<SweepData>& slot : sweeps_) {
    if (!slot.has_value()) continue;
    const SweepData& sweep = *slot;
    AppendCells(sweep, &cells);
    AppendPaperDeltas(sweep, sweep.fp64 ? "fig2b" : "fig2a",
                      sweep.fp64 ? Fig2bSpeedup() : Fig2aSpeedup(),
                      &harness::BenchmarkResults::SpeedupVsSerial, &deltas);
    if (!sweep.fp64) {
      AppendPaperDeltas(sweep, "fig3a", Fig3aPower(),
                        &harness::BenchmarkResults::PowerVsSerial, &deltas);
      AppendPaperDeltas(sweep, "fig4a", Fig4aEnergy(),
                        &harness::BenchmarkResults::EnergyVsSerial, &deltas);
    }
    if (sweep.recorder != nullptr) {
      sweep.recorder->Seal();  // producers are done; flush contract
      aggregator.IngestRecorder(*sweep.recorder, model,
                                sweep.fp64 ? "fp64" : "fp32");
      throughput.push_back(ComputeThroughput(sweep));
    }
  }

  return obs::WriteBenchReport(meta, cells, deltas, aggregator.Finalize(),
                               options.bench_json, throughput);
}

}  // namespace malisim::bench
