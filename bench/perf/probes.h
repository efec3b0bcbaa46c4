// The work malisim-perf measures, one call per child process. Every probe
// calls only long-lived public entry points of the simulator (the harness
// runner, the serve engine, benchmark Setup, kir::RunProgram, the Mali
// compiler and device, the memory hierarchy), so the layers behind them can
// be rewritten without editing the benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "harness/experiment.h"
#include "obs/host_prof.h"
#include "serve/engine.h"

namespace malisim::perf {

/// One workload: a figure sweep run through harness::ExperimentRunner, or
/// a batch submitted to serve::ServeEngine.
struct Workload {
  const char* name;
  bool serve = false;
  // Sweeps.
  bool quick_sizes = false;
  bool with_fp64 = false;
  // Serve batches.
  int jobs = 0;
  double fault_rate = 0.0;
  double watchdog_sec = 0.0;
};

// Each workload stresses a different layer (README.md has the full
// rationale):
//  - sweep-full: paper sizes, fp32. vecop, spmv, hist, red and 3dstc stream
//    far past the modelled 1 MB L2, so the cache/DRAM miss path works hardest.
//  - sweep-quick: quick sizes, fp32 + fp64. Working sets mostly fit the L2;
//    VM dispatch and per-run fixed costs dominate. Covers the amcd erratum.
//  - serve-mixed: the only concurrent workload; admission, per-job device
//    set-up and the shared compile cache under 4-way contention.
//  - serve-faults: most jobs walk the degradation ladder, paying failed
//    rungs, retries and re-compiles.
inline constexpr Workload kWorkloads[] = {
    {"sweep-full", false, false, false, 0, 0.0, 0.0},
    {"sweep-quick", false, true, true, 0, 0.0, 0.0},
    {"serve-mixed", true, false, false, 800, 0.0, 0.0},
    {"serve-faults", true, false, false, 400, 0.25, 1.0},
};

/// nullptr for unknown names.
const Workload* FindWorkload(std::string_view name);

/// Host-profiler phases a traced sweep reports as self-time shares
/// (trace.<name>.share).
inline constexpr std::pair<const char*, obs::HostPhase> kTracePhases[] = {
    {"setup", obs::HostPhase::kSetup},
    {"compile", obs::HostPhase::kCompile},
    {"vm_compile", obs::HostPhase::kVmCompile},
    {"enqueue", obs::HostPhase::kEnqueue},
    {"schedule", obs::HostPhase::kSchedule},
    {"execute", obs::HostPhase::kExecute},
    {"vm_exec", obs::HostPhase::kVmExec},
    {"merge", obs::HostPhase::kMerge},
    {"power", obs::HostPhase::kPowerAccounting},
    {"variant", obs::HostPhase::kVariant},
};

/// Serve batches: worker threads, all in one shard.
inline constexpr int kServeWorkers = 4;
/// Fixed fault seed: --seed varies the jobs, not the fault schedule.
inline constexpr std::uint64_t kServeFaultSeed = 7;

/// What one child process measured. Values are flat name -> number; the
/// digest fingerprints every modelled result, so repetitions of one
/// workload at one seed must agree on it exactly.
struct ProbeResult {
  std::map<std::string, double> values;
  std::string digest;
  std::uint64_t attempted = 0;  // cells or jobs
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

/// Called by a workload once its inputs, jobs and runner or engine exist:
/// the end of set-up.
using ReadyFn = void (*)();

enum class RepMode {
  kSetUpOnly,  // build the inputs, runner or engine, then tear them down
  kRun,        // one timed repetition
  kTraced,     // sweeps: one repetition with an obs::Recorder and host
               // profiling attached; the result gains the trace.* values
};

/// One repetition of `w`. A sweep runs every benchmark through
/// harness::ExperimentRunner; a serve batch submits every job at once,
/// then waits in Drain.
StatusOr<ProbeResult> RunWorkload(const Workload& w, std::uint64_t seed,
                                  RepMode mode, ReadyFn ready);

/// The layer microprobes: hpc Setup, bare-VM kernels, memory-hierarchy
/// streams, Mali compile and device runs.
StatusOr<ProbeResult> RunLayerProbes(std::uint64_t seed);

// Correctness gates. Each returns a non-OK status naming what is wrong.

/// Every available cell is validated, and a cell is unavailable only where
/// the paper has no number either (the amcd fp64 compiler erratum).
Status CheckCells(const std::vector<harness::BenchmarkResults>& results,
                  bool fp64);
/// The zero-lost-jobs invariant and one result per submission.
Status CheckServe(const serve::ServeReport& report, std::uint64_t submitted);
/// Repetitions of one workload at one seed agree on every modelled
/// number: the digest and each exact count named in `exact`.
Status CheckRepeats(const std::vector<ProbeResult>& reps,
                    const std::vector<std::string>& exact);

/// FNV-1a over the modelled results of a sweep, as 16 hex digits.
std::string SweepDigest(const std::vector<harness::BenchmarkResults>& results);
/// Geometric-mean factor error of modelled speedups over Serial against
/// the paper's Fig. 2a (fp32) or Fig. 2b (fp64) values: exp(mean |ln(m/p)|)
/// - 1 over every cell both report.
double PaperFitError(const std::vector<harness::BenchmarkResults>& results,
                     bool fp64, int* cells);

}  // namespace malisim::perf
