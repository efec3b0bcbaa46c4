// Shared plumbing for the figure-reproduction binaries: flag parsing,
// running both precisions, the paper-vs-model comparison rendering, and
// the --bench-json BENCH record emission (obs/bench_report.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench/paper_reference.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "obs/recorder.h"
#include "sim/device.h"
#include "sim/tuner.h"

namespace malisim::bench {

struct BenchOptions {
  bool run_fp32 = true;
  bool run_fp64 = true;
  bool csv = false;
  std::uint64_t seed = 42;
  /// Host threads for the simulation engine (results are identical for any
  /// value; see ExperimentConfig::sim_threads).
  int threads = 1;
  hpc::ProblemSizes sizes;
  /// When non-empty, a Chrome trace of the runs is written here.
  std::string trace_path;
  /// When non-empty, a schema-versioned BENCH record (malisim-bench-v1) of
  /// the run is written here for malisim-bench regression comparison.
  /// Byte-identical for any --threads value.
  std::string bench_json;
  /// Backend the OpenCL variants run on (--device=mali|a15|hetero). The
  /// default reproduces the paper figures byte-for-byte; "hetero" adds the
  /// Hetero co-execution column and splits every NDRange across both.
  sim::BackendKind device = sim::BackendKind::kMali;
  /// GPU share per NDRange on the hetero backend (--hetero-ratio=X):
  /// 0.0 = all-A15, 1.0 = all-Mali, negative = self-tuning.
  double hetero_ratio = -1.0;
  /// Fault injection and resilience (DESIGN.md §8). Defaults (all off)
  /// reproduce the golden figures byte-for-byte.
  FaultOptions fault;
  /// Autotuning (--tune[=time|energy|edp]): run sim::Tuner over every
  /// benchmark's §III space before each sweep and drive the OpenCL-opt
  /// column with the winners (DESIGN.md §12). Off by default — golden
  /// figures never see the tuner. Default objective: energy.
  bool tune = false;
  sim::Objective tune_objective = sim::Objective::kEnergy;
  /// Persistent winner cache for --tune (--tune-cache=PATH): loaded before
  /// tuning, saved after. Empty = tune from scratch each run.
  std::string tune_cache;
};

/// Parses --fp32 / --fp64 (run only that precision), --csv, --seed=N,
/// --threads=N (host threads for the simulation engine), --quick (shrunken
/// problem sizes for CI smoke runs), --trace=PATH (Chrome trace of the
/// runs), --bench-json=PATH (machine-comparable BENCH record of the run),
/// --device=mali|a15|hetero (backend for the OpenCL variants; exits with
/// status 2 on an unknown name), --hetero-ratio=X (GPU split share on the
/// hetero backend), and the fault-injection knobs: --fault-seed=N, --fault-rate=P
/// (uniform per-site trip probability), --fault-spec=site=rate[,...]
/// (per-site overrides; "all" = every site), --watchdog=SEC (per-kernel
/// modelled-time budget), --tune[=time|energy|edp] (autotune the §III
/// space and drive the OpenCL-opt column with the winners; exits with
/// status 2 on an unknown objective), --tune-cache=PATH (persistent
/// tuning-winner cache), and --log-level=debug|info|warn|error|off
/// (overrides MALISIM_LOG_LEVEL; exits with status 2 on an unknown
/// level). Any other argument exits with status 2 and an "unknown flag"
/// message, so a typo never quietly runs the defaults.
BenchOptions ParseOptions(int argc, char** argv);

/// One completed precision sweep plus the recorder that observed it (the
/// recorder is only attached when options.bench_json is set).
struct SweepData {
  bool fp64 = false;
  std::vector<harness::BenchmarkResults> results;
  std::shared_ptr<obs::Recorder> recorder;
  /// Measured host wall-clock for the sweep. Feeds only the record's
  /// sim_throughput_host section, which is excluded from the byte-identity
  /// contract.
  double host_sec = 0.0;
};

/// Runs all nine benchmarks at one precision. `recorder`, when non-null,
/// is attached to the harness for the sweep.
StatusOr<std::vector<harness::BenchmarkResults>> RunSweep(
    const BenchOptions& options, bool fp64,
    obs::Recorder* recorder = nullptr);

/// Runs one precision sweep, attaching a fresh recorder when
/// options.bench_json is set, and appends the sweep to *sweeps. Non-OK on
/// harness failure.
Status RunSweepInto(const BenchOptions& options, bool fp64,
                    std::vector<SweepData>* sweeps);

/// Writes the BENCH record for `sweeps` to options.bench_json: one cell
/// per (benchmark, variant, precision), paper-reference deltas for every
/// figure the paper reports, and the aggregated metrics snapshot
/// (per-kernel time histograms, per-rail energy, fault counters) under a
/// "fp32"/"fp64" prefix per sweep. No-op when options.bench_json is empty.
Status WriteBenchJson(const BenchOptions& options,
                      const std::string& bench_name,
                      const std::vector<SweepData>& sweeps);

/// Appends a paper-vs-model comparison table for the given metric.
std::string CompareWithPaper(
    const std::vector<harness::BenchmarkResults>& results,
    const std::map<std::string, PaperRow>& paper,
    double (harness::BenchmarkResults::*metric)(hpc::Variant) const,
    int precision);

}  // namespace malisim::bench
