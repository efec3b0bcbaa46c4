// FaultInjector: deterministic counter-mode decisions, site independence,
// quirk handling, and event recording.
#include "fault/injector.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace malisim::fault {
namespace {

std::vector<bool> TripSchedule(FaultInjector* injector, FaultSite site,
                               int n) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(injector->Trip(site, "k"));
  return out;
}

TEST(InjectorTest, ZeroRateNeverTrips) {
  FaultPlan plan;
  plan.seed = 1;
  FaultInjector injector(plan);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.Trip(FaultSite::kWrite, "k"));
  }
  EXPECT_EQ(injector.total_trips(), 0u);
  EXPECT_TRUE(injector.events().empty());
}

TEST(InjectorTest, RateOneAlwaysTrips) {
  FaultPlan plan;
  plan.seed = 1;
  plan.set_rate(FaultSite::kMap, 1.0);
  FaultInjector injector(plan);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(injector.Trip(FaultSite::kMap, "k"));
  }
  EXPECT_EQ(injector.trips(FaultSite::kMap), 10u);
  EXPECT_EQ(injector.events().size(), 10u);
}

TEST(InjectorTest, SameSeedReplaysIdentically) {
  FaultPlan plan;
  plan.seed = 0xabcdef;
  plan.set_rate(FaultSite::kNDRange, 0.3);
  FaultInjector a(plan);
  FaultInjector b(plan);
  EXPECT_EQ(TripSchedule(&a, FaultSite::kNDRange, 200),
            TripSchedule(&b, FaultSite::kNDRange, 200));
}

TEST(InjectorTest, DifferentSeedsGiveDifferentSchedules) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kNDRange, 0.5);
  plan.seed = 1;
  FaultInjector a(plan);
  plan.seed = 2;
  FaultInjector b(plan);
  EXPECT_NE(TripSchedule(&a, FaultSite::kNDRange, 200),
            TripSchedule(&b, FaultSite::kNDRange, 200));
}

TEST(InjectorTest, SitesAreIndependentStreams) {
  // Interleaving decisions at another site must not shift this site's
  // schedule — that is the counter-mode determinism contract.
  FaultPlan plan;
  plan.seed = 42;
  plan.set_rate(FaultSite::kWrite, 0.4);
  plan.set_rate(FaultSite::kRead, 0.4);
  FaultInjector pure(plan);
  const std::vector<bool> reference =
      TripSchedule(&pure, FaultSite::kWrite, 100);

  FaultInjector interleaved(plan);
  std::vector<bool> got;
  for (int i = 0; i < 100; ++i) {
    interleaved.Trip(FaultSite::kRead, "noise");
    interleaved.Trip(FaultSite::kRead, "noise");
    got.push_back(interleaved.Trip(FaultSite::kWrite, "k"));
  }
  EXPECT_EQ(got, reference);
}

TEST(InjectorTest, TripRateIsRoughlyCalibrated) {
  FaultPlan plan;
  plan.seed = 7;
  plan.set_rate(FaultSite::kFill, 0.2);
  FaultInjector injector(plan);
  int trips = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (injector.Trip(FaultSite::kFill, "k")) ++trips;
  }
  EXPECT_GT(trips, n / 10);      // > 10 %
  EXPECT_LT(trips, 3 * n / 10);  // < 30 %
}

TEST(InjectorTest, Fp64ErratumIsStructuralNotProbabilistic) {
  FaultPlan plan;
  FaultInjector on(plan);
  EXPECT_TRUE(on.TripFp64Erratum(true));
  EXPECT_FALSE(on.TripFp64Erratum(false));
  plan.fp64_erratum = false;
  FaultInjector off(plan);
  EXPECT_FALSE(off.TripFp64Erratum(true));
}

TEST(InjectorTest, RegBudgetQuirk) {
  FaultPlan plan;
  FaultInjector injector(plan);
  // Quirk on, no squeeze trip: budget passes through unchanged.
  EXPECT_EQ(injector.EffectiveRegBudget(384, "k"), 384u);
  plan.reg_budget = false;
  FaultInjector unlimited(plan);
  EXPECT_EQ(unlimited.EffectiveRegBudget(384, "k"), 0xFFFFFFFFu);
}

TEST(InjectorTest, RegSqueezeHalvesBudget) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kRegSqueeze, 1.0);
  FaultInjector injector(plan);
  EXPECT_EQ(injector.EffectiveRegBudget(384, "k"), 192u);
  EXPECT_EQ(injector.trips(FaultSite::kRegSqueeze), 1u);
}

TEST(InjectorTest, ThrottleFactor) {
  FaultPlan plan;
  FaultInjector calm(plan);
  EXPECT_DOUBLE_EQ(calm.ThrottleTimeFactor("k"), 1.0);
  plan.set_rate(FaultSite::kThrottle, 1.0);
  plan.throttle_time_factor = 1.5;
  FaultInjector hot(plan);
  EXPECT_DOUBLE_EQ(hot.ThrottleTimeFactor("k"), 1.5);
}

TEST(InjectorTest, MeterDropout) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kMeterDropout, 1.0);
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.DropMeterSample());
  EXPECT_EQ(injector.trips(FaultSite::kMeterDropout), 1u);
}

TEST(InjectorTest, SinkSeesEveryEvent) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kBuild, 1.0);
  FaultInjector injector(plan);
  std::vector<FaultEvent> seen;
  injector.set_sink([&seen](const FaultEvent& e) { seen.push_back(e); });
  injector.Trip(FaultSite::kBuild, "kernel_a");
  injector.RecordAction("degrade", "rung", "fell-back", "detail");
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].site, "build");
  EXPECT_EQ(seen[0].key, "kernel_a");
  EXPECT_EQ(seen[0].action, "injected");
  EXPECT_EQ(seen[1].site, "degrade");
  EXPECT_EQ(seen[1].action, "fell-back");
  EXPECT_EQ(injector.events().size(), 2u);
}

}  // namespace
}  // namespace malisim::fault
