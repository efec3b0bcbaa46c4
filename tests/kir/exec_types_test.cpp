#include "kir/exec_types.h"

#include <gtest/gtest.h>

namespace malisim::kir {
namespace {

TEST(LaunchConfigTest, DefaultIsValid) {
  LaunchConfig config;
  EXPECT_TRUE(config.IsValid());
  EXPECT_EQ(config.total_work_items(), 1u);
  EXPECT_EQ(config.total_groups(), 1u);
}

TEST(LaunchConfigTest, DerivedQuantities) {
  LaunchConfig config;
  config.work_dim = 2;
  config.global_size = {64, 32, 1};
  config.local_size = {16, 8, 1};
  EXPECT_TRUE(config.IsValid());
  EXPECT_EQ(config.total_work_items(), 2048u);
  EXPECT_EQ(config.work_group_size(), 128u);
  EXPECT_EQ(config.total_groups(), 16u);
  const auto groups = config.num_groups();
  EXPECT_EQ(groups[0], 4u);
  EXPECT_EQ(groups[1], 4u);
}

TEST(LaunchConfigTest, NonDivisibleRejected) {
  LaunchConfig config;
  config.global_size = {10, 1, 1};
  config.local_size = {3, 1, 1};
  EXPECT_FALSE(config.IsValid());
}

TEST(LaunchConfigTest, ZeroSizesRejected) {
  LaunchConfig config;
  config.global_size = {0, 1, 1};
  EXPECT_FALSE(config.IsValid());
}

TEST(LaunchConfigTest, UnusedDimensionsMustBeOne) {
  LaunchConfig config;
  config.work_dim = 1;
  config.global_size = {8, 2, 1};
  config.local_size = {8, 2, 1};
  EXPECT_FALSE(config.IsValid());
}

TEST(LaunchConfigTest, BadWorkDimRejected) {
  LaunchConfig config;
  config.work_dim = 4;
  EXPECT_FALSE(config.IsValid());
}

TEST(OpHistogramTest, AddAndGet) {
  OpHistogram h;
  h.Add(OpClass::kArithMul, ScalarType::kF32, 4, 3);
  EXPECT_EQ(h.Get(OpClass::kArithMul, ScalarType::kF32, 4), 3u);
  EXPECT_EQ(h.Get(OpClass::kArithMul, ScalarType::kF32, 8), 0u);
  EXPECT_EQ(h.TotalClass(OpClass::kArithMul), 3u);
  EXPECT_EQ(h.Total(), 3u);
}

TEST(OpHistogramTest, LaneOpsWeightedByWidth) {
  OpHistogram h;
  h.Add(OpClass::kLoad, ScalarType::kF64, 8, 2);  // 2 vec8 loads
  h.Add(OpClass::kLoad, ScalarType::kF32, 1, 5);  // 5 scalar loads
  EXPECT_EQ(h.TotalLaneOps(OpClass::kLoad), 2u * 8 + 5u);
}

TEST(OpHistogramTest, MergeAndClear) {
  OpHistogram a, b;
  a.Add(OpClass::kStore, ScalarType::kI32, 1, 7);
  b.Add(OpClass::kStore, ScalarType::kI32, 1, 5);
  b.Add(OpClass::kBarrier, ScalarType::kF32, 1);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get(OpClass::kStore, ScalarType::kI32, 1), 12u);
  EXPECT_EQ(a.TotalClass(OpClass::kBarrier), 1u);
  a.Clear();
  EXPECT_EQ(a.Total(), 0u);
}

TEST(OpHistogramTest, ForEachVisitsNonZeroOnly) {
  OpHistogram h;
  h.Add(OpClass::kArithSimple, ScalarType::kF32, 16, 9);
  int visits = 0;
  h.ForEach([&](OpClass c, ScalarType t, std::uint8_t lanes, std::uint64_t n) {
    ++visits;
    EXPECT_EQ(c, OpClass::kArithSimple);
    EXPECT_EQ(t, ScalarType::kF32);
    EXPECT_EQ(lanes, 16);
    EXPECT_EQ(n, 9u);
  });
  EXPECT_EQ(visits, 1);
}

TEST(WorkGroupRunTest, ImbalanceFactorDefinition) {
  WorkGroupRun run;
  EXPECT_DOUBLE_EQ(run.imbalance_factor(), 1.0);  // empty: neutral
  run.item_weight_sum = 100;
  run.weighted_group_cost = 250;
  EXPECT_DOUBLE_EQ(run.imbalance_factor(), 2.5);
}

TEST(WorkGroupRunTest, MergeSums) {
  WorkGroupRun a, b;
  a.loads = 3;
  a.store_bytes = 64;
  a.work_items = 10;
  a.item_weight_sum = 100;
  b.loads = 4;
  b.atomics = 2;
  b.work_items = 6;
  b.weighted_group_cost = 50;
  a.MergeFrom(b);
  EXPECT_EQ(a.loads, 7u);
  EXPECT_EQ(a.atomics, 2u);
  EXPECT_EQ(a.work_items, 16u);
  EXPECT_EQ(a.item_weight_sum, 100u);
  EXPECT_EQ(a.weighted_group_cost, 50u);
}

TEST(ScalarValueTest, Factories) {
  EXPECT_EQ(ScalarValue::I32V(-5).type, ScalarType::kI32);
  EXPECT_EQ(ScalarValue::I32V(-5).i, -5);
  EXPECT_EQ(ScalarValue::I64V(1LL << 40).i, 1LL << 40);
  EXPECT_EQ(ScalarValue::F32V(1.5f).type, ScalarType::kF32);
  EXPECT_DOUBLE_EQ(ScalarValue::F64V(0.25).f, 0.25);
}

}  // namespace
}  // namespace malisim::kir
