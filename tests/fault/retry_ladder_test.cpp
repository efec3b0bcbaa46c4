// Retry-with-backoff and the graceful-degradation ladder.
#include <string>
#include <vector>

#include "fault/degrade.h"
#include "fault/retry.h"
#include "gtest/gtest.h"

namespace malisim::fault {
namespace {

TEST(TaxonomyTest, TransientAndDegradableSets) {
  EXPECT_TRUE(IsTransient(UnavailableError("x")));
  EXPECT_TRUE(IsTransient(AllocationFailureError("x")));
  EXPECT_FALSE(IsTransient(ResourceExhaustedError("x")));
  EXPECT_FALSE(IsTransient(InvalidArgumentError("x")));

  EXPECT_TRUE(IsDegradable(UnavailableError("x")));
  EXPECT_TRUE(IsDegradable(AllocationFailureError("x")));
  EXPECT_TRUE(IsDegradable(ResourceExhaustedError("x")));
  EXPECT_TRUE(IsDegradable(BuildFailureError("x")));
  EXPECT_TRUE(IsDegradable(DeadlineExceededError("x")));
  EXPECT_FALSE(IsDegradable(InvalidArgumentError("x")));
  EXPECT_FALSE(IsDegradable(NotFoundError("x")));
}

TEST(RetryTest, SucceedsFirstTryNoRetries) {
  RetryPolicy policy;
  RetryStats stats;
  Status result = RetryWithBackoff(
      policy, [] { return Status::Ok(); }, &stats);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_DOUBLE_EQ(stats.backoff_sec, 0.0);
}

TEST(RetryTest, RetriesTransientUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return calls < 3 ? UnavailableError("hiccup") : Status::Ok();
      },
      &stats);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
  // 1e-3 + 2e-3 of exponential backoff, accounted but never modelled.
  EXPECT_DOUBLE_EQ(stats.backoff_sec, 3e-3);
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return UnavailableError("persistent");
      },
      &stats);
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retries, 2);
}

TEST(RetryTest, NeverRetriesNonTransient) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  Status result = RetryWithBackoff(policy, [&calls]() -> Status {
    ++calls;
    return ResourceExhaustedError("registers");
  });
  EXPECT_EQ(result.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, TotalBackoffCapStopsRetrying) {
  // base 1e-3, doubling: backoffs 1e-3, 2e-3, 4e-3... A cap of 2.5e-3
  // admits the first retry (1e-3) but not the second (1e-3 + 2e-3 > cap):
  // the retry loop must give up rather than overrun the caller's deadline
  // budget, even with attempts left.
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.max_total_backoff_sec = 2.5e-3;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return UnavailableError("storm");
      },
      &stats);
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_LE(stats.backoff_sec, policy.max_total_backoff_sec);
}

TEST(RetryTest, TotalBackoffCapZeroMeansUnbounded) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.max_total_backoff_sec = 0.0;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return UnavailableError("storm");
      },
      &stats);
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 6);
  EXPECT_EQ(stats.retries, 5);
}

TEST(RetryTest, TotalBackoffCapNeverBlocksTheFirstAttempt) {
  // Even a cap too small for any backoff still runs the operation once —
  // the cap bounds waiting, not work.
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.max_total_backoff_sec = 1e-9;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return calls == 1 ? UnavailableError("once") : Status::Ok();
      },
      &stats);
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_DOUBLE_EQ(stats.backoff_sec, 0.0);
}

TEST(RetryTest, WorksWithStatusOr) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  int calls = 0;
  StatusOr<int> result = RetryWithBackoff(policy, [&calls]() -> StatusOr<int> {
    ++calls;
    if (calls < 2) return UnavailableError("hiccup");
    return 42;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 2);
}

std::vector<Rung<int>> MakeRungs(std::vector<Status> outcomes,
                                 std::vector<int>* calls) {
  std::vector<Rung<int>> rungs;
  calls->assign(outcomes.size(), 0);  // size up front: rungs keep pointers in
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    Status status = outcomes[i];
    int* counter = &(*calls)[i];
    rungs.push_back({"rung-" + std::to_string(i),
                     [status, counter, i]() -> StatusOr<int> {
                       ++*counter;
                       if (!status.ok()) return status;
                       return static_cast<int>(i);
                     }});
  }
  return rungs;
}

TEST(LadderTest, FirstRungWins) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs({Status::Ok(), Status::Ok()}, &calls);
  LadderReport report;
  RetryPolicy policy;
  StatusOr<int> result = RunLadder<int>(policy, rungs, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 0);
  EXPECT_EQ(report.rung_index, 0);
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(calls[0], 1);
  EXPECT_EQ(calls[1], 0);
}

TEST(LadderTest, DegradableFailuresFallThrough) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs(
      {ResourceExhaustedError("regs"), BuildFailureError("ice"), Status::Ok()},
      &calls);
  LadderReport report;
  RetryPolicy policy;
  StatusOr<int> result = RunLadder<int>(policy, rungs, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 2);
  EXPECT_EQ(report.rung_index, 2);
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].first, "rung-0");
  EXPECT_EQ(report.failures[0].second.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(report.failures[1].second.code(), ErrorCode::kBuildFailure);
}

TEST(LadderTest, FatalErrorAbortsImmediately) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs =
      MakeRungs({InvalidArgumentError("bug"), Status::Ok()}, &calls);
  RetryPolicy policy;
  StatusOr<int> result = RunLadder<int>(policy, rungs);
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(calls[1], 0) << "fatal errors must not degrade";
}

TEST(LadderTest, AllRungsFailReturnsLastStatus) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs(
      {ResourceExhaustedError("a"), BuildFailureError("b")}, &calls);
  LadderReport report;
  RetryPolicy policy;
  StatusOr<int> result = RunLadder<int>(policy, rungs, &report);
  EXPECT_EQ(result.status().code(), ErrorCode::kBuildFailure);
  EXPECT_EQ(report.rung_index, -1);
  EXPECT_EQ(report.failures.size(), 2u);
}

TEST(LadderTest, TransientsAreRetriedWithinARung) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  std::vector<Rung<int>> rungs;
  rungs.push_back({"flaky", [&calls]() -> StatusOr<int> {
                     ++calls;
                     if (calls < 3) return UnavailableError("hiccup");
                     return 7;
                   }});
  LadderReport report;
  StatusOr<int> result = RunLadder<int>(policy, rungs, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_EQ(report.rung_index, 0);
  EXPECT_EQ(report.retry.retries, 2);
  EXPECT_GT(report.retry.backoff_sec, 0.0);
}

TEST(LadderTest, RecordsActionsOnInjector) {
  FaultPlan plan;
  FaultInjector injector(plan);
  std::vector<int> calls;
  std::vector<Rung<int>> rungs =
      MakeRungs({UnavailableError("hiccup"), Status::Ok()}, &calls);
  RetryPolicy policy;
  policy.max_attempts = 3;
  StatusOr<int> result = RunLadder<int>(policy, rungs, nullptr, &injector);
  ASSERT_TRUE(result.ok());
  // One vocabulary for every ladder: events are keyed by the rung label.
  ASSERT_EQ(injector.events().size(), 2u);
  const FaultEvent& retry = injector.events()[0];
  EXPECT_EQ(retry.site, "retry");
  EXPECT_EQ(retry.key, "rung-0");
  EXPECT_EQ(retry.action, "retried");
  EXPECT_EQ(retry.detail, "2 transient retries");
  const FaultEvent& fell = injector.events()[1];
  EXPECT_EQ(fell.site, "degrade");
  EXPECT_EQ(fell.key, "rung-0");
  EXPECT_EQ(fell.action, "fell-back");
  EXPECT_EQ(fell.detail,
            UnavailableError("hiccup").ToString() + " -> trying 'rung-1'");
}

// ---------------------------------------------------------------------------
// The per-rung gate.
// ---------------------------------------------------------------------------

GateDecision Skip() { return {GateDecision::kSkip, {}}; }

TEST(LadderGateTest, SkippedRungNeverRunsAndTheNextDoes) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs({Status::Ok(), Status::Ok()}, &calls);
  LadderReport report;
  StatusOr<int> result = RunLadder<int>(
      RetryPolicy(), rungs, &report, nullptr,
      [](std::size_t i) { return i == 0 ? Skip() : GateDecision(); });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 1);
  EXPECT_EQ(report.rung_index, 1);
  EXPECT_TRUE(report.failures.empty()) << "a skip is not a failure";
  EXPECT_EQ(calls[0], 0);
  EXPECT_EQ(calls[1], 1);
}

TEST(LadderGateTest, StopReturnsTheGateStatusAndRunsNothingBelow) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs(
      {BuildFailureError("ice"), Status::Ok(), Status::Ok()}, &calls);
  StatusOr<int> result = RunLadder<int>(
      RetryPolicy(), rungs, nullptr, nullptr, [](std::size_t i) {
        return i == 1 ? GateDecision{GateDecision::kStop,
                                     DeadlineExceededError("budget spent")}
                      : GateDecision();
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(result.status().message(), "budget spent");
  EXPECT_EQ(calls[0], 1);
  EXPECT_EQ(calls[1], 0);
  EXPECT_EQ(calls[2], 0);
}

TEST(LadderGateTest, AskedOncePerRungIndex) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs(
      {UnavailableError("hiccup"), ResourceExhaustedError("regs"),
       Status::Ok()},
      &calls);
  RetryPolicy policy;
  policy.max_attempts = 3;
  std::vector<std::size_t> asked;
  StatusOr<int> result =
      RunLadder<int>(policy, rungs, nullptr, nullptr, [&asked](std::size_t i) {
        asked.push_back(i);
        return GateDecision();
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls[0], 3) << "retries stay inside the rung";
  EXPECT_EQ(asked, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(LadderGateTest, EveryRungSkippedIsAnError) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs({Status::Ok(), Status::Ok()}, &calls);
  LadderReport report;
  StatusOr<int> result =
      RunLadder<int>(RetryPolicy(), rungs, &report, nullptr,
                     [](std::size_t) { return Skip(); });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(report.rung_index, -1);
  EXPECT_EQ(calls[0] + calls[1], 0);
}

}  // namespace
}  // namespace malisim::fault
