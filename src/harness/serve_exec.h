// Job-scoped execution for the serve engine (DESIGN.md §14): one benchmark
// variant run end-to-end against fresh device models, with the job's own
// fault schedule, watchdog budget and retry cap.
//
// Isolation contract: every call stands up a fresh Benchmark, CortexA15
// model and ocl::Context (the TuneBenchmark evaluation pattern), so jobs
// never share mutable simulator state and can run concurrently from any
// worker thread. The only shared state is the optional CompileCache, which
// is internally synchronized and never alters results or fault schedules.
//
// Determinism contract: the caller premixes the job id into
// `fault.seed`, so a job's injector decisions depend only on (plan, job),
// not on which worker ran it or what ran before — replaying a single job
// from a soak reproduces its fault schedule bit-identically.
#pragma once

#include <cstdint>
#include <string>

#include "common/sim_options.h"
#include "common/status.h"
#include "fault/retry.h"
#include "hpc/benchmark.h"
#include "hpc/problem_sizes.h"
#include "power/power_model.h"
#include "sim/device.h"
#include "sim/tuner.h"

namespace malisim::mali {
class CompileCache;
}  // namespace malisim::mali

namespace malisim::harness {

struct JobExecRequest {
  std::string benchmark;
  hpc::ProblemSizes sizes;
  bool fp64 = false;
  /// Simulation seed (inputs + reference), per job.
  std::uint64_t seed = 0;
  /// Backend the gpu context dispatches to for GPU variants.
  sim::BackendKind device = sim::BackendKind::kMali;
  hpc::Variant variant = hpc::Variant::kOpenCLOpt;
  /// GPU share for the hetero backend; negative = self-tuning default.
  double hetero_ratio = -1.0;
  /// Fault configuration. `seed` must already be premixed per job;
  /// `watchdog_sec` carries the job's remaining modelled-time budget
  /// (0 = no watchdog).
  FaultOptions fault;
  /// Retry budget for this attempt (RetryPolicy.max_total_backoff_sec):
  /// the job's remaining deadline budget, so backoff can never outlive
  /// the deadline. 0 = unbounded.
  double max_total_backoff_sec = 0.0;
  /// Tuned configuration applied on the kOpenCLOpt rung (nullptr = the
  /// paper's fixed kernel).
  const sim::TuningConfig* tuned = nullptr;
  power::PowerParams power;
  /// Shared pure-compile cache (nullptr = compile from scratch).
  mali::CompileCache* compile_cache = nullptr;
};

struct JobExecResult {
  /// Modelled seconds of the measured region.
  double seconds = 0.0;
  /// Modelled energy over the region (power model, no meter noise — serve
  /// reports true energy per job, not a metered estimate).
  double energy_j = 0.0;
  bool validated = false;
  std::string note;
  /// Transient-retry accounting for this variant attempt.
  fault::RetryStats retry;
};

/// Runs exactly one variant of one job: one serve rung, which
/// ServeEngine::RunJob walks through fault::RunLadder so its breakers see
/// every per-rung outcome. Transient failures are retried here, on this
/// call's board, within the request's backoff budget. Error statuses pass
/// through the fault taxonomy unchanged: degradable failures move the walk
/// to a lower rung, fatal ones end the job. `out->retry` is filled even on
/// failure (the engine accounts failed attempts' backoff against the
/// deadline); the measurement fields are only meaningful on Ok.
Status ExecuteJobVariant(const JobExecRequest& request, JobExecResult* out);

}  // namespace malisim::harness
