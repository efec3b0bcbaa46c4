// Shared plumbing for malisim-fig, the experiment driver: flag parsing, the
// per-precision sweeps the figure views share, the --bench-json BENCH
// record emission (obs/bench_report.h), and the experiments' entry points.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"
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
  /// When non-empty, a Chrome trace of each figure sweep is written here.
  std::string trace_path;
  /// When non-empty, a schema-versioned BENCH record (malisim-bench-v1) of
  /// the figure sweeps is written here for malisim-bench regression
  /// comparison. Byte-identical for any --threads value.
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

/// Appends every argument that does not start with '-' to *experiments, in
/// order, and parses the flags: --fp32 / --fp64 (run only that precision),
/// --csv, --seed=N, --threads=N (host threads for the simulation engine),
/// --quick (shrunken problem sizes for CI smoke runs), --trace=PATH (Chrome
/// trace of the sweeps), --bench-json=PATH (machine-comparable BENCH
/// record of the sweeps), --device=mali|a15|hetero (backend for the OpenCL
/// variants), --hetero-ratio=X (GPU split share on the hetero backend),
/// the fault-injection knobs --fault-seed=N, --fault-rate=P (uniform
/// per-site trip probability), --fault-spec=site=rate[,...] (per-site
/// overrides; "all" = every site) and --watchdog=SEC (per-kernel modelled
/// time budget), --tune[=time|energy|edp] (autotune the §III space and
/// drive the OpenCL-opt column with the winners), --tune-cache=PATH
/// (persistent tuning-winner cache), and --log-level=debug|info|warn|
/// error|off (overrides MALISIM_LOG_LEVEL). Exits with status 2 on an
/// unknown flag ("unknown flag"), an unknown device, objective or log
/// level, or a numeric value that does not parse whole ("invalid value"),
/// so a typo never quietly runs the defaults.
BenchOptions ParseOptions(int argc, char** argv,
                          std::vector<std::string>* experiments);

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

/// The per-precision sweeps of one invocation. Every figure view reads the
/// same sweep, so each precision is simulated at most once, on first use.
class Sweeps {
 public:
  explicit Sweeps(const BenchOptions& options) : options_(options) {}

  /// Runs all nine benchmarks at one precision on first use, writing the
  /// sweep's trace when options.trace_path is set. Null after a harness
  /// failure, which is reported on stderr once.
  const SweepData* Get(bool fp64);

  /// Writes the BENCH record of every sweep run so far to
  /// options.bench_json: one cell per (benchmark, variant, precision),
  /// paper-reference deltas for every figure the paper reports, and the
  /// aggregated metrics snapshot (per-kernel time histograms, per-rail
  /// energy, fault counters) under a "fp32"/"fp64" prefix per sweep.
  /// No-op when options.bench_json is empty; an error when no sweep ran.
  Status WriteBenchJson(const std::string& bench_name) const;

 private:
  const BenchOptions& options_;
  std::optional<SweepData> sweeps_[2];  // indexed by fp64
  bool failed_[2] = {false, false};
};

/// Prints `table` as CSV or ASCII, then a blank line.
void PrintTable(const Table& table, bool csv);

/// An experiment prints its output to stdout and returns the process exit
/// status. The ablations and studies run fixed configurations: of the
/// shared flags they read only --csv, and characteristics also --fp64.
using ExperimentFn = int (*)(const BenchOptions& options, Sweeps& sweeps);

// ablations.cpp: the eight §III technique ablations (DESIGN.md §5, A1-A8).
int AblationMemoryMapping(const BenchOptions& options, Sweeps& sweeps);
int AblationWorkgroupSize(const BenchOptions& options, Sweeps& sweeps);
int AblationVectorSize(const BenchOptions& options, Sweeps& sweeps);
int AblationUnrolling(const BenchOptions& options, Sweeps& sweeps);
int AblationQualifiers(const BenchOptions& options, Sweeps& sweeps);
int AblationDataLayout(const BenchOptions& options, Sweeps& sweeps);
int AblationGlobalSize(const BenchOptions& options, Sweeps& sweeps);
int AblationLocalMemory(const BenchOptions& options, Sweeps& sweeps);

// studies.cpp: the extensions beyond the paper's figures.
int ScalingStudy(const BenchOptions& options, Sweeps& sweeps);
int BenchmarkCharacteristics(const BenchOptions& options, Sweeps& sweeps);

}  // namespace malisim::bench
