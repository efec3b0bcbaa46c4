// Randomized round-trip property test: programs generated by random walks
// over the builder API must survive print -> parse -> print unchanged (in
// normal form) and execute identically.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "kir/builder.h"
#include "kir/interp.h"
#include "kir/parse.h"

namespace malisim::kir {
namespace {

/// Builds a random straight-line-plus-loops kernel over one f32 buffer.
Program RandomProgram(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  KernelBuilder kb("fuzz_" + std::to_string(seed));
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW,
                          rng.NextDouble() < 0.5, rng.NextDouble() < 0.5);
  Val gid = kb.GlobalId(0);
  const std::uint8_t lane_options[] = {1, 2, 4, 8};
  const std::uint8_t lanes =
      lane_options[rng.NextBounded(4)];

  std::vector<Val> pool;
  pool.push_back(kb.Splat(kb.Load(buf, gid), lanes));
  pool.push_back(kb.ConstF(F32(lanes), rng.NextDouble(0.5, 2.0)));

  const int ops = 4 + static_cast<int>(rng.NextBounded(12));
  for (int i = 0; i < ops; ++i) {
    Val a = pool[rng.NextBounded(pool.size())];
    Val b = pool[rng.NextBounded(pool.size())];
    switch (rng.NextBounded(6)) {
      case 0:
        pool.push_back(a + b);
        break;
      case 1:
        pool.push_back(a * b);
        break;
      case 2:
        pool.push_back(kb.Min(a, b));
        break;
      case 3:
        pool.push_back(kb.Fma(a, b, pool[rng.NextBounded(pool.size())]));
        break;
      case 4:
        pool.push_back(kb.Abs(a));
        break;
      case 5:
        pool.push_back(kb.Slide(a, b, static_cast<int>(rng.NextBounded(lanes + 1))));
        break;
    }
  }
  // Occasionally wrap a reduction loop around an accumulator.
  if (rng.NextDouble() < 0.5) {
    Val acc = kb.Var(F32(lanes), "acc");
    kb.Assign(acc, pool.back());
    kb.For("i", kb.ConstI(I32(), 0),
           kb.ConstI(I32(), 1 + static_cast<int>(rng.NextBounded(7))), 1,
           [&](Val) { kb.Assign(acc, acc + pool[rng.NextBounded(pool.size())]); });
    pool.push_back(acc);
  }
  // Occasionally a ParallelFor (printed with the `parallel` marker) whose
  // last iteration writes this item's element.
  const bool parallel_loop = rng.NextDouble() < 0.5;
  const std::int64_t trips = 1 + static_cast<std::int64_t>(rng.NextBounded(12));
  if (parallel_loop) {
    kb.ParallelFor("p", kb.ConstI(I32(), 0), kb.ConstI(I32(), trips), 1,
                   [&](Val p) {
                     Val t = kb.Load(buf, gid) + kb.Convert(p, ScalarType::kF32);
                     kb.If(kb.CmpEq(p, kb.ConstI(I32(), trips - 1)),
                           [&] { kb.Store(buf, gid, t); });
                   });
  }
  kb.Store(buf, gid, kb.Load(buf, gid) + kb.VSum(pool.back()));
  return *kb.Build();
}

std::vector<float> Execute(const Program& p) {
  std::vector<float> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.25f + 0.01f * static_cast<float>(i);
  }
  Bindings b;
  b.buffers = {{reinterpret_cast<std::byte*>(data.data()), 0x1000,
                data.size() * 4}};
  LaunchConfig config;
  config.global_size = {32, 1, 1};
  config.local_size = {8, 1, 1};
  EXPECT_TRUE(RunProgram(p, config, std::move(b)).ok());
  return data;
}

/// Functional run with `threads` workers; captures final buffer contents
/// and the aggregate counts.
std::pair<std::vector<float>, WorkGroupRun> ExecuteThreaded(const Program& p,
                                                            int threads) {
  std::vector<float> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.25f + 0.01f * static_cast<float>(i);
  }
  Bindings b;
  b.buffers = {{reinterpret_cast<std::byte*>(data.data()), 0x1000,
                data.size() * 4}};
  LaunchConfig config;
  config.global_size = {32, 1, 1};
  config.local_size = {8, 1, 1};
  StatusOr<WorkGroupRun> run =
      threads == 1 ? RunProgram(p, config, std::move(b))
                   : RunProgramParallel(p, config, b, threads);
  EXPECT_TRUE(run.ok());
  return {data, run.ok() ? *std::move(run) : WorkGroupRun{}};
}

class RoundTripFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripFuzzTest, PrintParseExecuteEquivalence) {
  const Program original = RandomProgram(GetParam());
  const std::string text = ToText(original);
  StatusOr<Program> parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;

  // Normal form is a fixed point.
  const std::string normal = ToText(*parsed);
  StatusOr<Program> reparsed = ParseProgram(normal);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(ToText(*reparsed), normal);

  // ParallelFor markers survive the round trip.
  ASSERT_EQ(parsed->code.size(), original.code.size());
  for (std::size_t i = 0; i < original.code.size(); ++i) {
    EXPECT_EQ(parsed->code[i].parallel, original.code[i].parallel) << i;
  }

  // Execution is bit-identical.
  EXPECT_EQ(Execute(original), Execute(*parsed));
}

TEST_P(RoundTripFuzzTest, ConcurrentExecutionMatchesSerial) {
  const Program p = RandomProgram(GetParam());
  const auto [serial_data, serial_run] = ExecuteThreaded(p, 1);
  const auto [parallel_data, parallel_run] = ExecuteThreaded(p, 4);

  // Final buffer contents must be bit-identical...
  EXPECT_EQ(serial_data, parallel_data);
  // ...and so must every functional count.
  EXPECT_EQ(serial_run.ops.Total(), parallel_run.ops.Total());
  serial_run.ops.ForEach([&](OpClass c, ScalarType t, std::uint8_t lanes,
                             std::uint64_t n) {
    EXPECT_EQ(parallel_run.ops.Get(c, t, lanes), n)
        << "class " << static_cast<int>(c) << " type " << static_cast<int>(t)
        << " lanes " << static_cast<int>(lanes);
  });
  EXPECT_EQ(serial_run.loads, parallel_run.loads);
  EXPECT_EQ(serial_run.stores, parallel_run.stores);
  EXPECT_EQ(serial_run.load_bytes, parallel_run.load_bytes);
  EXPECT_EQ(serial_run.store_bytes, parallel_run.store_bytes);
  EXPECT_EQ(serial_run.atomics, parallel_run.atomics);
  EXPECT_EQ(serial_run.barriers_crossed, parallel_run.barriers_crossed);
  EXPECT_EQ(serial_run.work_items, parallel_run.work_items);
  EXPECT_EQ(serial_run.item_weight_sum, parallel_run.item_weight_sum);
  EXPECT_EQ(serial_run.weighted_group_cost, parallel_run.weighted_group_cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace malisim::kir
