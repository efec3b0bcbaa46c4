// Circuit-breaker state machine: trip on consecutive degradable
// failures, count-based cooldown, single half-open probe, recover or
// re-open on the probe's outcome.
#include "serve/breaker.h"

#include <gtest/gtest.h>

namespace malisim::serve {
namespace {

BreakerConfig Config(int threshold, int cooldown) {
  BreakerConfig config;
  config.failure_threshold = threshold;
  config.open_cooldown = cooldown;
  return config;
}

TEST(BreakerTest, TripsAfterConsecutiveFailuresOnly) {
  CircuitBreaker breaker(Config(3, 4));
  for (int round = 0; round < 5; ++round) {
    // failure, failure, success: never three in a row, never trips.
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(BreakerTest, OpenRefusesForCooldownThenAdmitsOneProbe) {
  CircuitBreaker breaker(Config(1, 3));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  // Exactly `open_cooldown` refusals...
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(breaker.Allow()) << "refusal " << i;
  }
  // ...then one caller is admitted as the half-open probe, and while the
  // probe is in flight everyone else keeps getting refused.
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
}

TEST(BreakerTest, ProbeSuccessCloses) {
  CircuitBreaker breaker(Config(1, 1));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();       // trip
  EXPECT_FALSE(breaker.Allow()); // cooldown tick
  ASSERT_TRUE(breaker.Allow());  // probe
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 1u);
  // Fully recovered: traffic flows and the failure streak restarted.
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
}

TEST(BreakerTest, ProbeFailureReopensAndCooldownRestarts) {
  CircuitBreaker breaker(Config(1, 2));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();       // trip #1
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  ASSERT_TRUE(breaker.Allow());  // probe
  breaker.RecordFailure();       // probe fails -> open again
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  // The cooldown starts over from the failed probe.
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(BreakerTest, InconclusiveProbeFreesTheSlotAndCountsNothing) {
  CircuitBreaker breaker(Config(1, 0));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();       // trip
  ASSERT_TRUE(breaker.Allow());  // probe
  EXPECT_FALSE(breaker.Allow()) << "one probe at a time";
  breaker.RecordInconclusive();  // the probe's job failed fatally
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  ASSERT_TRUE(breaker.Allow()) << "the next caller becomes the probe";
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(BreakerTest, StateNamesAreDistinct) {
  EXPECT_NE(BreakerStateName(BreakerState::kClosed),
            BreakerStateName(BreakerState::kOpen));
  EXPECT_NE(BreakerStateName(BreakerState::kOpen),
            BreakerStateName(BreakerState::kHalfOpen));
}

TEST(BreakerBoardTest, RungsAreIndependent) {
  BreakerBoard board(Config(1, 1));
  board.ForVariant(hpc::Variant::kOpenCLOpt).Allow();
  board.ForVariant(hpc::Variant::kOpenCLOpt).RecordFailure();
  EXPECT_EQ(board.ForVariant(hpc::Variant::kOpenCLOpt).state(),
            BreakerState::kOpen);
  for (hpc::Variant v : {hpc::Variant::kSerial, hpc::Variant::kOpenMP,
                         hpc::Variant::kOpenCL, hpc::Variant::kHetero}) {
    EXPECT_EQ(board.ForVariant(v).state(), BreakerState::kClosed)
        << hpc::VariantName(v);
  }
}

}  // namespace
}  // namespace malisim::serve
