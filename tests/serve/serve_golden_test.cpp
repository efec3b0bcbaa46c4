// Zero-tolerance goldens for the serve engine's degradation ladder: one row
// per job of the CI telemetry load (200 GenerateLoad jobs at fault rate
// 0.25, fault seed 7, watchdog 1 s) under three breaker/deadline configs.
// Breaker skips, budget exhaustion, watchdog charges, retries and reroutes
// all land in some column, so any change to how RunJob walks the ladder
// shows up as a diff. Breakers are either off or driven by one worker, so
// every row is a pure function of the job list.
//
// Regenerating the goldens (after an intentional change):
//
//   MALISIM_UPDATE_GOLDEN=1 ./build/tests/serve/serve_golden_test
//
// rewrites tests/serve/golden/*.txt in the source tree.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "golden_file.h"
#include "serve/engine.h"
#include "serve/job.h"

#ifndef MALISIM_SERVE_GOLDEN_DIR
#error "MALISIM_SERVE_GOLDEN_DIR must point at tests/serve/golden"
#endif

namespace malisim::serve {
namespace {

ServeOptions TelemetryLoadOptions() {
  ServeOptions options;
  options.queue_depth = 4096;
  options.fault.rate = 0.25;
  options.fault.seed = 7;
  options.fault.watchdog_sec = 1.0;
  return options;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string RenderJobs(const ServeReport& report) {
  std::string out =
      "id|state|requested|ran|seconds|consumed|energy|backoff|attempts|"
      "retries|rerouted|error|note\n";
  for (const JobResult& r : report.results) {
    out += std::to_string(r.id) + "|" + std::string(JobStateName(r.state)) +
           "|" + std::string(VariantKey(r.requested)) + "|" +
           std::string(VariantKey(r.ran)) + "|" + Num(r.seconds) + "|" +
           Num(r.consumed_sec) + "|" + Num(r.energy_j) + "|" +
           Num(r.backoff_sec) + "|" + std::to_string(r.attempts) + "|" +
           std::to_string(r.retries) + "|" +
           (r.breaker_rerouted ? "1" : "0") + "|" + r.error + "|" + r.note +
           "\n";
  }
  return out;
}

void RunAndCompare(const ServeOptions& options, const std::string& name) {
  ServeEngine engine(options);
  for (const JobSpec& job : GenerateLoad(200, 42)) {
    ASSERT_TRUE(engine.Submit(job).ok()) << "queue_depth covers the batch";
  }
  const ServeReport report = engine.Drain();
  ASSERT_TRUE(report.Consistent());
  golden::ExpectMatchesGolden(
      RenderJobs(report),
      std::string(MALISIM_SERVE_GOLDEN_DIR) + "/" + name + ".txt");
}

TEST(ServeGoldenTest, FourWorkersBreakersOff) {
  ServeOptions options = TelemetryLoadOptions();
  options.workers_per_shard = 4;
  options.breaker.failure_threshold = 1000000;
  RunAndCompare(options, "w4_breakers_off");
}

ServeOptions OneWorkerBreakers(double deadline_sec) {
  ServeOptions options = TelemetryLoadOptions();
  options.workers_per_shard = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.open_cooldown = 3;
  options.default_deadline_sec = deadline_sec;
  return options;
}

TEST(ServeGoldenTest, OneWorkerBreakersDeadline50ms) {
  RunAndCompare(OneWorkerBreakers(0.05), "w1_breakers_deadline_0.05");
}

TEST(ServeGoldenTest, OneWorkerBreakersDeadline3ms) {
  RunAndCompare(OneWorkerBreakers(0.003), "w1_breakers_deadline_0.003");
}

}  // namespace
}  // namespace malisim::serve
