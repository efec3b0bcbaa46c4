// Experiment runner: executes benchmark variants, applies the power model
// and the virtual WT230 meter, and collects per-variant results following
// the paper's methodology (§IV-D): constant problem size across versions,
// measurements over the parallel region only, 20 repetitions with mean and
// standard deviation (our timing model is deterministic; the repetitions
// exercise the meter's 0.1% accuracy noise, and the observed deviations are
// as negligible as the paper reports).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sim_options.h"
#include "common/status.h"
#include "hpc/benchmark.h"
#include "hpc/problem_sizes.h"
#include "power/power_meter.h"
#include "power/power_model.h"
#include "sim/device.h"

namespace malisim::obs {
class Recorder;
}  // namespace malisim::obs

namespace malisim::harness {

struct ExperimentConfig {
  hpc::ProblemSizes sizes;
  bool fp64 = false;
  std::uint64_t seed = 42;
  /// Backend the OpenCL variants dispatch to: the Mali-T604 model
  /// (default), both A15 cores, or the heterogeneous co-execution backend
  /// splitting each NDRange across both. kMali reproduces the paper runs
  /// byte-for-byte.
  sim::BackendKind device = sim::BackendKind::kMali;
  /// GPU share per NDRange on the hetero backend: 0.0 = all-A15, 1.0 =
  /// all-Mali, negative = self-tuning seeded from modelled throughput.
  double hetero_ratio = -1.0;
  /// Adds the Hetero co-execution column next to the four paper versions
  /// even when `device` is a single-device backend (a second, hetero
  /// context is stood up for that column). With device == kHetero the
  /// column is always present.
  bool include_hetero = false;
  int repetitions = 20;             // paper §IV-D
  double meter_window_sec = 2.0;    // modelled steady-state window per rep
  /// Host threads for the simulation engine. 1 = serial reference engine;
  /// >1 runs work-groups concurrently (and RunAll farms whole benchmarks
  /// across workers). Results are bit-identical for any value — the meter
  /// RNG is keyed per (benchmark, variant) and the devices use
  /// deterministic record/replay.
  int sim_threads = 1;
  power::PowerParams power;
  power::PowerMeterParams meter;
  /// Optional observability recorder. When attached it is wired into the
  /// device models and the OCL runtime for every benchmark, and the runner
  /// adds one power segment per available variant (the §IV-D steady-state
  /// meter window). Recording never changes any modelled second or watt —
  /// golden CSVs are bit-identical with and without it. Note RunAll with
  /// sim_threads > 1 records kernel/segment ORDER nondeterministically;
  /// run benchmarks serially when exporting traces.
  obs::Recorder* recorder = nullptr;
  /// Fault-injection and resilience knobs (DESIGN.md §8). The runner
  /// builds one FaultPlan per (benchmark, precision) cell, with the plan
  /// seed mixed per cell the same way the meter seed is — fault schedules
  /// are independent of host-thread count and execution order. All-zero
  /// rates and spec leave every result bit-identical to a build without
  /// the fault subsystem.
  FaultOptions fault;
  /// Autotuned §III configurations, keyed by benchmark name (the --tune
  /// flag on the figure binaries fills this from harness::TuneBenchmark).
  /// When a benchmark has an entry, its OpenCL-opt column runs
  /// RunTuned(config) instead of the fixed paper kernel; benchmarks
  /// without an entry are untouched, so golden figures stay byte-identical
  /// when the map is empty.
  std::map<std::string, sim::TuningConfig> tuned_configs;
};

struct VariantResult {
  bool available = false;
  std::string unavailable_reason;   // e.g. the amcd FP64 build failure
  double seconds = 0.0;
  double power_mean_w = 0.0;
  double power_stddev_w = 0.0;
  double energy_j = 0.0;            // power * modelled region time
  bool validated = false;
  double max_rel_error = 0.0;
  std::string note;
  StatRegistry stats;
  /// Power-meter repetitions skipped because every sample in the window
  /// was dropped (injected meter dropouts). Skipped reps never enter the
  /// mean/stddev; the figure tables report the count instead.
  int failed_repetitions = 0;
  /// Variant that actually produced these numbers when the harness rung
  /// of the degradation ladder fell (empty = ran as requested).
  std::string degraded_to;
};

struct BenchmarkResults {
  std::string name;
  VariantResult variants[5];  // indexed by hpc::Variant (incl. kHetero)

  const VariantResult& Get(hpc::Variant v) const {
    return variants[static_cast<int>(v)];
  }
  /// Speedup of `v` over Serial; 0 when either side is unavailable.
  double SpeedupVsSerial(hpc::Variant v) const;
  /// Power of `v` normalized to Serial; 0 when unavailable.
  double PowerVsSerial(hpc::Variant v) const;
  /// Energy-to-solution of `v` normalized to Serial; 0 when unavailable.
  double EnergyVsSerial(hpc::Variant v) const;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(const ExperimentConfig& config);

  /// Runs one benchmark through all four versions.
  StatusOr<BenchmarkResults> RunBenchmark(const std::string& name);

  /// Runs every registered benchmark in paper order.
  StatusOr<std::vector<BenchmarkResults>> RunAll();

  const ExperimentConfig& config() const { return config_; }

 private:
  /// `device_threads` is the host-thread count handed to the device models;
  /// parallel RunAll passes 1 so concurrently-running benchmarks don't each
  /// spin up a nested pool (results are identical either way).
  StatusOr<BenchmarkResults> RunBenchmarkImpl(const std::string& name,
                                              int device_threads);

  ExperimentConfig config_;
  power::PowerModel power_model_;
};

}  // namespace malisim::harness
