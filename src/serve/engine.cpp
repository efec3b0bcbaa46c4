#include "serve/engine.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/json.h"
#include "common/log.h"
#include "common/table.h"
#include "fault/degrade.h"
#include "harness/serve_exec.h"
#include "harness/tuning.h"
#include "obs/telemetry.h"

namespace malisim::serve {

namespace {

/// Fault-plan seed for one (job, rung) attempt, FNV-mixed like the
/// harness's CellFaultSeed so schedules depend only on (base seed, job id,
/// rung) — never on worker identity, shard or arrival order. That is the
/// whole replay contract: re-running job N alone reproduces its faults.
std::uint64_t JobFaultSeed(std::uint64_t base_seed, std::uint64_t job_id,
                           hpc::Variant rung) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t byte) {
    h ^= byte & 0xffULL;
    h *= 0x100000001b3ULL;
  };
  for (int i = 0; i < 8; ++i) mix(job_id >> (8 * i));
  mix(0xffULL);  // separator
  mix(static_cast<std::uint64_t>(rung));
  return h ^ base_seed ^ 0x5e27eULL;
}

/// Appends one rung decision to the job's exemplar span list (no-op when
/// telemetry is off and `spans` is null).
void AddSpan(std::vector<obs::JobRungSpan>* spans, hpc::Variant rung,
             double start_sec, double end_sec, const char* outcome,
             int retries = 0, double backoff_sec = 0.0) {
  if (spans == nullptr) return;
  obs::JobRungSpan span;
  span.rung = std::string(VariantKey(rung));
  span.start_sec = start_sec;
  span.end_sec = end_sec;
  span.outcome = outcome;
  span.retries = retries;
  span.backoff_sec = backoff_sec;
  spans->push_back(std::move(span));
}

}  // namespace

bool ServeReport::Consistent() const {
  if (results.size() != submitted) return false;
  std::uint64_t sum = 0;
  for (const std::uint64_t c : state_counts) sum += c;
  if (sum != submitted) return false;
  std::array<std::uint64_t, kNumJobStates> recount{};
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i > 0 && results[i].id <= results[i - 1].id) return false;  // dups
    const auto s = static_cast<std::size_t>(results[i].state);
    if (s >= static_cast<std::size_t>(kNumJobStates)) return false;
    ++recount[s];
  }
  return recount == state_counts;
}

ServeEngine::ServeEngine(const ServeOptions& options)
    : options_(options), breakers_(options.breaker) {
  const int shards = std::max(1, options_.shards);
  const int workers = std::max(1, options_.workers_per_shard);
  queues_.reserve(static_cast<std::size_t>(shards));
  workers_.resize(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    queues_.push_back(std::make_unique<AdmissionQueue<JobSpec>>(
        std::max<std::size_t>(1, options_.queue_depth)));
    workers_[static_cast<std::size_t>(s)] =
        std::vector<WorkerSlot>(static_cast<std::size_t>(workers));
  }
  if (options_.telemetry != nullptr) {
    // Breaker states are sampled live at each window flush. Load-dependent
    // by nature (see telemetry.h): with breakers disabled it reads
    // "closed" everywhere and snapshots stay byte-identical.
    options_.telemetry->SetStateProber([this] {
      std::vector<std::pair<std::string, std::string>> rows;
      for (hpc::Variant v : hpc::kDegradationLadder) {
        rows.emplace_back(
            std::string(VariantKey(v)),
            std::string(BreakerStateName(breakers_.ForVariant(v).state())));
      }
      return rows;
    });
  }
  start_ = std::chrono::steady_clock::now();
  for (int s = 0; s < shards; ++s) {
    for (int w = 0; w < workers; ++w) {
      workers_[static_cast<std::size_t>(s)][static_cast<std::size_t>(w)]
          .thread = std::thread([this, s, w] { WorkerLoop(s, w); });
    }
  }
}

ServeEngine::~ServeEngine() {
  if (!drained_) {
    BeginShutdown();
    for (auto& shard : workers_) {
      for (WorkerSlot& slot : shard) {
        if (slot.thread.joinable()) slot.thread.join();
      }
    }
  }
  // The plane outlives the engine; its prober must not.
  if (options_.telemetry != nullptr) {
    options_.telemetry->SetStateProber(nullptr);
  }
}

Status ServeEngine::Submit(const JobSpec& job) {
  submitted_.fetch_add(1);
  if (options_.telemetry != nullptr) {
    options_.telemetry->NoteSubmitted(job.id);
  }
  Status admitted;
  if (shutdown_.load()) {
    admitted = OverloadedError("draining: admission closed");
  } else {
    const std::size_t shard = job.id % queues_.size();
    admitted = queues_[shard]->TryPush(job);
    if (!admitted.ok() && admitted.code() != ErrorCode::kOverloaded) {
      // A closed queue surfaces as FailedPrecondition; to the submitter
      // both are the same typed refusal.
      admitted = OverloadedError("draining: admission closed");
    }
  }
  if (!admitted.ok()) {
    JobResult shed;
    shed.id = job.id;
    shed.tenant = job.tenant;
    shed.state = JobState::kShed;
    shed.requested = job.variant;
    shed.ran = job.variant;
    shed.error = admitted.ToString();
    RecordResult(std::move(shed));
  }
  return admitted;
}

void ServeEngine::BeginShutdown() {
  shutdown_.store(true);
  for (auto& queue : queues_) queue->Close();
}

std::size_t ServeEngine::QueueDepth() const {
  std::size_t depth = 0;
  for (const auto& queue : queues_) depth += queue->size();
  return depth;
}

void ServeEngine::WorkerLoop(int shard, int slot_index) {
  WorkerSlot& slot =
      workers_[static_cast<std::size_t>(shard)]
              [static_cast<std::size_t>(slot_index)];
  AdmissionQueue<JobSpec>& queue = *queues_[static_cast<std::size_t>(shard)];
  JobSpec job;
  while (queue.Pop(&job)) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<obs::JobRungSpan> spans;
    JobResult result =
        RunJob(job, options_.telemetry != nullptr ? &spans : nullptr);
    const double latency =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    slot.host_latency.Add(latency);
    ++slot.jobs_run;
    RecordResult(std::move(result), std::move(spans));
  }
}

const sim::TuningConfig* ServeEngine::TunedConfigFor(const JobSpec& job) {
  if (!options_.autotune) return nullptr;
  const std::string key = job.benchmark + (job.fp64 ? "|fp64|" : "|fp32|") +
                          std::string(sim::BackendName(job.device));
  std::lock_guard<std::mutex> lock(tuning_mu_);
  auto it = tuned_.find(key);
  if (it != tuned_.end()) return it->second.get();

  harness::TuningRequest request;
  request.benchmark = job.benchmark;
  request.sizes = job.sizes;
  request.fp64 = job.fp64;
  request.seed = job.seed;
  request.device = job.device;
  request.power = options_.power;
  request.tuner = options_.tuner;
  // Tuning measures the healthy system: no injected faults in the search
  // (a fault-skewed winner would be wrong for every healthy job).
  request.cache = options_.tune_cache;
  StatusOr<harness::TuningReport> report = harness::TuneBenchmark(request);
  std::unique_ptr<sim::TuningConfig> winner;
  if (report.ok()) {
    winner = std::make_unique<sim::TuningConfig>(report->result.best);
  } else {
    MALI_LOG_WARN("serve: tuning %s failed (%s); using the paper kernel",
                  key.c_str(), report.status().ToString().c_str());
  }
  // Failures memoize as null so one broken tuning problem costs one
  // search, not one per job.
  return tuned_.emplace(key, std::move(winner)).first->second.get();
}

JobResult ServeEngine::RunJob(const JobSpec& job,
                              std::vector<obs::JobRungSpan>* spans) {
  JobResult r;
  r.id = job.id;
  r.tenant = job.tenant;
  r.requested = job.variant;
  r.ran = job.variant;

  const double budget = job.deadline_sec > 0.0 ? job.deadline_sec
                                               : options_.default_deadline_sec;
  double consumed = 0.0;
  // Set when a rung completes past the budget: the walk stops there.
  Status overrun;
  const std::span<const hpc::Variant> ladder = hpc::LadderFrom(job.variant);

  // Routing policy, asked before each rung: stop after an overrun or once
  // the budget is spent (checked first, so a job that cannot run the rung
  // never takes its half-open probe), route past an open breaker. Serial
  // is attempted regardless: there is nothing below it to route to.
  const fault::RungGate gate = [&](std::size_t i) -> fault::GateDecision {
    const hpc::Variant rung = ladder[i];
    if (!overrun.ok()) return {fault::GateDecision::kStop, overrun};
    if (budget > 0.0 && budget - consumed <= 0.0) {
      AddSpan(spans, rung, consumed, consumed, "budget-exhausted");
      return {fault::GateDecision::kStop,
              DeadlineExceededError("job budget (" + std::to_string(budget) +
                                    " modelled sec) exhausted before rung " +
                                    std::string(hpc::VariantName(rung)))};
    }
    if (!breakers_.ForVariant(rung).Allow()) {
      r.breaker_rerouted = true;
      if (rung != hpc::Variant::kSerial) {
        AddSpan(spans, rung, consumed, consumed, "breaker-skipped");
        return {fault::GateDecision::kSkip, {}};
      }
    }
    return {};
  };

  // One attempt of one rung: the rung's remaining budget becomes its
  // watchdog and retry cap, and its outcome is charged to the budget, fed
  // to the rung's breaker and recorded as a span.
  std::vector<fault::Rung<harness::JobExecResult>> rungs;
  for (const hpc::Variant rung : ladder) {
    rungs.push_back({std::string(hpc::VariantName(rung)),
                     [&, rung]() -> StatusOr<harness::JobExecResult> {
      CircuitBreaker& breaker = breakers_.ForVariant(rung);
      const double remaining = budget > 0.0 ? budget - consumed : 0.0;
      harness::JobExecRequest request;
      request.benchmark = job.benchmark;
      request.sizes = job.sizes;
      request.fp64 = job.fp64;
      request.seed = job.seed;
      request.device = job.device;
      request.variant = rung;
      request.hetero_ratio = job.hetero_ratio;
      request.fault = options_.fault;
      request.fault.seed = JobFaultSeed(options_.fault.seed, job.id, rung);
      if (budget > 0.0) {
        request.fault.watchdog_sec =
            options_.fault.watchdog_sec > 0.0
                ? std::min(options_.fault.watchdog_sec, remaining)
                : remaining;
        request.max_total_backoff_sec = remaining;
      }
      request.tuned = rung == hpc::Variant::kOpenCLOpt ? TunedConfigFor(job)
                                                       : nullptr;
      request.power = options_.power;
      request.compile_cache =
          options_.compile_cache ? &compile_cache_ : nullptr;

      harness::JobExecResult exec;
      const double rung_start = consumed;
      const Status status = harness::ExecuteJobVariant(request, &exec);
      ++r.attempts;
      r.retries += exec.retry.retries;
      r.backoff_sec += exec.retry.backoff_sec;
      consumed += exec.retry.backoff_sec;
      auto span = [&](const char* outcome) {
        AddSpan(spans, rung, rung_start, consumed, outcome,
                exec.retry.retries, exec.retry.backoff_sec);
      };

      if (status.ok()) {
        consumed += exec.seconds;
        breaker.RecordSuccess();
        if (budget > 0.0 && consumed > budget) {
          // It ran, but past the promise. A deadline violation is
          // reported as one, not silently excused by eventual success.
          overrun = DeadlineExceededError(
              "completed on rung " + std::string(hpc::VariantName(rung)) +
              " but spent " + std::to_string(consumed) + " of " +
              std::to_string(budget) + " modelled sec");
          span("ok-past-deadline");
          return overrun;
        }
        span("ok");
        return exec;
      }
      if (status.code() == ErrorCode::kDeadlineExceeded) {
        // The rung's watchdog fired: its whole allotment is spent.
        consumed += request.fault.watchdog_sec;
        breaker.RecordFailure();
        span("watchdog");
      } else if (!fault::IsDegradable(status)) {
        // Fatal taxonomy: no rung below computes a different answer. It is
        // the job's error, not the rung's, so it only frees the probe.
        breaker.RecordInconclusive();
        span("fatal");
      } else {
        breaker.RecordFailure();
        span("degradable-fault");
      }
      return status;
    }});
  }

  // One walker attempt per rung: ExecuteJobVariant retries on the rung's
  // own board, and a fresh board per attempt would redraw the same fault.
  fault::RetryPolicy one_attempt;
  one_attempt.max_attempts = 1;
  fault::LadderReport report;
  StatusOr<harness::JobExecResult> run =
      fault::RunLadder<harness::JobExecResult>(one_attempt, rungs, &report,
                                               nullptr, gate);
  r.consumed_sec = consumed;
  if (!run.ok()) {
    r.state = run.status().code() == ErrorCode::kDeadlineExceeded
                  ? JobState::kDeadlineExceeded
                  : JobState::kFailed;
    r.error = run.status().ToString();
    return r;
  }
  r.ran = ladder[static_cast<std::size_t>(report.rung_index)];
  r.state = r.ran == job.variant ? JobState::kOk : JobState::kDegraded;
  r.seconds = run->seconds;
  r.energy_j = run->energy_j;
  r.note = run->note;
  return r;
}

void ServeEngine::RecordResult(JobResult result,
                               std::vector<obs::JobRungSpan> spans) {
  obs::TelemetrySample sample;
  if (options_.telemetry != nullptr) {
    sample.id = result.id;
    sample.tenant = NormalizeTenant(result.tenant);
    sample.state = std::string(JobStateName(result.state));
    sample.completed = result.state == JobState::kOk ||
                       result.state == JobState::kDegraded;
    sample.rung =
        sample.completed ? std::string(VariantKey(result.ran)) : std::string();
    sample.shed = result.state == JobState::kShed;
    sample.deadline_missed = result.state == JobState::kDeadlineExceeded;
    sample.failed = result.state == JobState::kFailed;
    sample.modelled_sec = result.seconds;
    sample.consumed_sec = result.consumed_sec;
    sample.energy_j = result.energy_j;
    sample.backoff_sec = result.backoff_sec;
    sample.retries = result.retries;
    sample.attempts = result.attempts;
    sample.breaker_rerouted = result.breaker_rerouted;
    sample.spans = std::move(spans);
  }
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    results_.push_back(std::move(result));
  }
  // Outside results_mu_: Record may trip a window flush (snapshot render,
  // sink IO) and must never serialize result recording behind it.
  if (options_.telemetry != nullptr) {
    options_.telemetry->Record(std::move(sample));
  }
}

ServeReport ServeEngine::Drain() {
  BeginShutdown();
  for (auto& shard : workers_) {
    for (WorkerSlot& slot : shard) {
      if (slot.thread.joinable()) slot.thread.join();
    }
  }
  drained_ = true;
  if (options_.telemetry != nullptr) {
    // Producers have stopped: flush every remaining window (the partial
    // final one included), then seal the recorder — anything recorded
    // after this point is a late record and is surfaced as a counter.
    options_.telemetry->FinalFlush();
    if (obs::Recorder* recorder = options_.telemetry->recorder();
        recorder != nullptr) {
      recorder->Seal();
    }
    options_.telemetry->SetStateProber(nullptr);
  }
  const double host_elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();

  ServeReport report;
  report.submitted = submitted_.load();
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    report.results = std::move(results_);
  }
  std::sort(report.results.begin(), report.results.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
  for (const JobResult& r : report.results) {
    ++report.state_counts[static_cast<std::size_t>(r.state)];
  }
  for (hpc::Variant v : hpc::kDegradationLadder) {
    const CircuitBreaker& b = breakers_.ForVariant(v);
    report.breakers.push_back({v, b.state(), b.trips()});
  }
  report.host_elapsed_sec = host_elapsed;
  // Completed jobs only: shed, failed and deadline-exceeded results are
  // accounted, but they are not throughput.
  const std::uint64_t completed =
      report.count(JobState::kOk) + report.count(JobState::kDegraded);
  report.jobs_per_host_sec =
      host_elapsed > 0.0 ? static_cast<double>(completed) / host_elapsed : 0.0;
  report.compile_cache_stats = compile_cache_.stats();

  // Metrics. Everything under "serve/" is a pure function of the job set
  // and the fault plan (iteration over id-sorted results); host wall-clock
  // derived values live under "serve_host/" so bench gates can hold them
  // to a loose threshold.
  obs::MetricsAggregator agg;
  for (int s = 0; s < kNumJobStates; ++s) {
    agg.AddCounter("serve/jobs_" +
                       std::string(JobStateName(static_cast<JobState>(s))),
                   static_cast<double>(report.state_counts[
                       static_cast<std::size_t>(s)]));
  }
  agg.AddCounter("serve/jobs_submitted",
                 static_cast<double>(report.submitted));
  std::map<std::string, std::array<std::uint64_t, kNumJobStates>> by_tenant;
  for (const JobResult& r : report.results) {
    agg.AddCounter("serve/retries", static_cast<double>(r.retries));
    agg.AddCounter("serve/rung_attempts", static_cast<double>(r.attempts));
    if (r.breaker_rerouted) agg.AddCounter("serve/breaker_reroutes");
    ++by_tenant[NormalizeTenant(r.tenant)][static_cast<std::size_t>(r.state)];
    if (r.state == JobState::kOk || r.state == JobState::kDegraded) {
      agg.Observe("serve/job_modelled_sec", r.seconds);
      agg.Observe("serve/job_energy_j", r.energy_j);
      agg.AddCounter("serve/completed_on/" + std::string(VariantKey(r.ran)));
    }
    if (r.backoff_sec > 0.0) {
      agg.Observe("serve/job_backoff_sec", r.backoff_sec);
    }
  }
  for (const auto& [tenant, counts] : by_tenant) {
    for (int s = 0; s < kNumJobStates; ++s) {
      const std::uint64_t c = counts[static_cast<std::size_t>(s)];
      if (c == 0) continue;
      agg.AddCounter("serve/tenant/" + tenant + "/jobs_" +
                         std::string(JobStateName(static_cast<JobState>(s))),
                     static_cast<double>(c));
    }
  }
  for (const ServeReport::BreakerRow& row : report.breakers) {
    agg.AddCounter("serve/breaker_trips/" + std::string(VariantKey(row.rung)),
                   static_cast<double>(row.trips));
  }
  agg.AddCounter("serve/compile_cache_hits",
                 static_cast<double>(report.compile_cache_stats.hits));
  agg.AddCounter("serve/compile_cache_misses",
                 static_cast<double>(report.compile_cache_stats.misses));
  if (options_.telemetry != nullptr) {
    const obs::TelemetryTotals totals = options_.telemetry->Totals();
    agg.AddCounter("serve/telemetry/windows",
                   static_cast<double>(totals.windows));
    agg.AddCounter("serve/telemetry/exemplars",
                   static_cast<double>(totals.exemplars));
    agg.AddCounter("serve/telemetry/slo_breaches",
                   static_cast<double>(totals.slo_breaches));
    agg.AddCounter("serve/telemetry/slo_recoveries",
                   static_cast<double>(totals.slo_recoveries));
    if (const obs::Recorder* recorder = options_.telemetry->recorder();
        recorder != nullptr) {
      agg.AddCounter("serve/obs/late_records",
                     static_cast<double>(recorder->late_records()));
    }
  }

  agg.SetGauge("serve_host/elapsed_sec", host_elapsed);
  agg.SetGauge("serve_host/jobs_per_host_sec", report.jobs_per_host_sec);
  obs::LogHistogram host_latency;
  for (const auto& shard : workers_) {
    for (const WorkerSlot& slot : shard) {
      host_latency.Merge(slot.host_latency);
    }
  }
  agg.MergeHistogram("serve_host/job_latency_sec", host_latency);
  report.metrics = agg.Finalize();
  return report;
}

std::string ServeReport::ToText() const {
  std::string out = "=== malisim-serve report ===\n";
  out += "jobs submitted: " + std::to_string(submitted) + "\n";
  for (int s = 0; s < kNumJobStates; ++s) {
    out += "  " + std::string(JobStateName(static_cast<JobState>(s))) + ": " +
           std::to_string(state_counts[static_cast<std::size_t>(s)]) + "\n";
  }
  out += "breakers:\n";
  for (const BreakerRow& row : breakers) {
    out += "  " + std::string(hpc::VariantName(row.rung)) + ": " +
           std::string(BreakerStateName(row.state)) + " (" +
           std::to_string(row.trips) + " trip(s))\n";
  }
  out += "host: " + FormatDouble(host_elapsed_sec, 2) + " s, " +
         FormatDouble(jobs_per_host_sec, 1) + " jobs/s\n";
  out += "compile cache: " + std::to_string(compile_cache_stats.hits) +
         " hit(s), " + std::to_string(compile_cache_stats.misses) +
         " miss(es)\n";
  const auto p50 = metrics.histograms.find("serve_host/job_latency_sec");
  if (p50 != metrics.histograms.end() && p50->second.count > 0) {
    out += "job latency: p50 " + FormatDouble(p50->second.p50 * 1e3, 1) +
           " ms, p99 " + FormatDouble(p50->second.p99 * 1e3, 1) + " ms\n";
  }
  out += std::string("invariant: ") +
         (Consistent() ? "consistent (no lost jobs)" : "VIOLATED") + "\n";
  return out;
}

std::string ServeReport::ToJson(bool include_results) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("malisim-serve-v1");
  w.Key("submitted");
  w.Number(static_cast<std::uint64_t>(submitted));
  w.Key("states");
  w.BeginObject();
  for (int s = 0; s < kNumJobStates; ++s) {
    w.Key(std::string(JobStateName(static_cast<JobState>(s))));
    w.Number(state_counts[static_cast<std::size_t>(s)]);
  }
  w.EndObject();
  w.Key("consistent");
  w.Bool(Consistent());
  w.Key("host_elapsed_sec");
  w.Number(host_elapsed_sec);
  w.Key("jobs_per_host_sec");
  w.Number(jobs_per_host_sec);
  w.Key("compile_cache");
  w.BeginObject();
  w.Key("hits");
  w.Number(compile_cache_stats.hits);
  w.Key("misses");
  w.Number(compile_cache_stats.misses);
  w.EndObject();
  w.Key("breakers");
  w.BeginArray();
  for (const BreakerRow& row : breakers) {
    w.BeginObject();
    w.Key("rung");
    w.String(std::string(VariantKey(row.rung)));
    w.Key("state");
    w.String(std::string(BreakerStateName(row.state)));
    w.Key("trips");
    w.Number(row.trips);
    w.EndObject();
  }
  w.EndArray();
  if (include_results) {
    w.Key("results");
    w.BeginArray();
    for (const JobResult& r : results) {
      w.BeginObject();
      w.Key("id");
      w.Number(r.id);
      w.Key("tenant");
      w.String(NormalizeTenant(r.tenant));
      w.Key("state");
      w.String(std::string(JobStateName(r.state)));
      w.Key("requested");
      w.String(std::string(VariantKey(r.requested)));
      w.Key("ran");
      w.String(std::string(VariantKey(r.ran)));
      w.Key("seconds");
      w.Number(r.seconds);
      w.Key("consumed_sec");
      w.Number(r.consumed_sec);
      w.Key("energy_j");
      w.Number(r.energy_j);
      w.Key("attempts");
      w.Number(static_cast<std::uint64_t>(r.attempts < 0 ? 0 : r.attempts));
      w.Key("retries");
      w.Number(static_cast<std::uint64_t>(r.retries < 0 ? 0 : r.retries));
      w.Key("backoff_sec");
      w.Number(r.backoff_sec);
      w.Key("breaker_rerouted");
      w.Bool(r.breaker_rerouted);
      if (!r.error.empty()) {
        w.Key("error");
        w.String(r.error);
      }
      if (!r.note.empty()) {
        w.Key("note");
        w.String(r.note);
      }
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.str() + "\n";
}

}  // namespace malisim::serve
