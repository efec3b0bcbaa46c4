// End-to-end execution tests on the VM (through kir::RunProgram): NDRange
// semantics, control flow, memory, barriers, atomics, instrumentation
// counts, and fault detection.
#include "kir/interp.h"

#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "kir/builder.h"
#include "kir/vm/vm.h"

namespace malisim::kir {
namespace {

Bindings BindBuffers(std::initializer_list<std::pair<void*, std::size_t>> bufs,
                     std::vector<ScalarValue> scalars = {}) {
  Bindings b;
  std::uint64_t addr = 0x10000;
  for (const auto& [ptr, bytes] : bufs) {
    b.buffers.push_back({static_cast<std::byte*>(ptr), addr, bytes});
    addr += 0x10000;
  }
  b.scalars = std::move(scalars);
  return b;
}

TEST(InterpTest, GlobalIdIndexesWork) {
  KernelBuilder kb("gid");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  kb.Store(out, gid, gid);
  Program p = *kb.Build();

  std::vector<std::int32_t> data(16, -1);
  LaunchConfig config;
  config.global_size = {16, 1, 1};
  config.local_size = {4, 1, 1};
  auto run = RunProgram(p, config, BindBuffers({{data.data(), 64}}));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(run->work_items, 16u);
  EXPECT_EQ(run->stores, 16u);
}

TEST(InterpTest, LocalAndGroupIdsConsistent) {
  // out[gid] = group_id * local_size + local_id must equal gid.
  KernelBuilder kb("ids");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  Val reconstructed = kb.Binary(
      Opcode::kAdd,
      kb.Binary(Opcode::kMul, kb.GroupId(0), kb.LocalSize(0)), kb.LocalId(0));
  kb.Store(out, gid, reconstructed);
  Program p = *kb.Build();

  std::vector<std::int32_t> data(32, -1);
  LaunchConfig config;
  config.global_size = {32, 1, 1};
  config.local_size = {8, 1, 1};
  ASSERT_TRUE(RunProgram(p, config, BindBuffers({{data.data(), 128}})).ok());
  for (int i = 0; i < 32; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
}

TEST(InterpTest, ThreeDimensionalIds) {
  KernelBuilder kb("3d");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val x = kb.GlobalId(0);
  Val y = kb.GlobalId(1);
  Val z = kb.GlobalId(2);
  Val gsx = kb.GlobalSize(0);
  Val gsy = kb.GlobalSize(1);
  Val idx = kb.Binary(
      Opcode::kAdd,
      kb.Binary(Opcode::kMul, kb.Binary(Opcode::kAdd, kb.Binary(Opcode::kMul, z, gsy), y), gsx),
      x);
  kb.Store(out, idx, idx);
  Program p = *kb.Build();

  std::vector<std::int32_t> data(2 * 3 * 4, -1);
  LaunchConfig config;
  config.work_dim = 3;
  config.global_size = {2, 3, 4};
  config.local_size = {2, 1, 2};
  ASSERT_TRUE(RunProgram(p, config, BindBuffers({{data.data(), data.size() * 4}})).ok());
  for (int i = 0; i < 24; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
}

TEST(InterpTest, LoopAccumulates) {
  KernelBuilder kb("sumk");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val n = kb.ArgScalar("n", ScalarType::kI32);
  Val acc = kb.Var(I32(), "acc");
  kb.Assign(acc, kb.ConstI(I32(), 0));
  kb.For("i", kb.ConstI(I32(), 0), n, 1,
         [&](Val i) { kb.Assign(acc, acc + i); });
  kb.Store(out, kb.ConstI(I32(), 0), acc);
  Program p = *kb.Build();

  std::int32_t result = -1;
  LaunchConfig config;
  auto run = RunProgram(p, config,
                        BindBuffers({{&result, 4}}, {ScalarValue::I32V(10)}));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(result, 45);
}

TEST(InterpTest, ZeroTripLoopSkipsBody) {
  KernelBuilder kb("empty");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val zero = kb.ConstI(I32(), 0);
  kb.Store(out, zero, kb.ConstI(I32(), 7));
  kb.For("i", kb.ConstI(I32(), 5), kb.ConstI(I32(), 5), 1,
         [&](Val) { kb.Store(out, zero, kb.ConstI(I32(), 99)); });
  Program p = *kb.Build();
  std::int32_t result = 0;
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, BindBuffers({{&result, 4}})).ok());
  EXPECT_EQ(result, 7);
}

TEST(InterpTest, NestedLoopsAndStep) {
  KernelBuilder kb("nest");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val acc = kb.Var(I32(), "acc");
  kb.Assign(acc, kb.ConstI(I32(), 0));
  kb.For("i", kb.ConstI(I32(), 0), kb.ConstI(I32(), 6), 2, [&](Val) {
    kb.For("j", kb.ConstI(I32(), 0), kb.ConstI(I32(), 3), 1,
           [&](Val) { kb.Assign(acc, acc + 1.0); });
  });
  kb.Store(out, kb.ConstI(I32(), 0), acc);
  Program p = *kb.Build();
  std::int32_t result = 0;
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, BindBuffers({{&result, 4}})).ok());
  EXPECT_EQ(result, 9);  // 3 outer iterations x 3 inner
}

TEST(InterpTest, IfElseBothPaths) {
  KernelBuilder kb("branch");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  Val two = kb.ConstI(I32(), 2);
  Val is_small = kb.CmpLt(gid, two);
  kb.If(is_small, [&] { kb.Store(out, gid, kb.ConstI(I32(), 100)); },
        [&] { kb.Store(out, gid, kb.ConstI(I32(), 200)); });
  Program p = *kb.Build();
  std::vector<std::int32_t> data(4, 0);
  LaunchConfig config;
  config.global_size = {4, 1, 1};
  ASSERT_TRUE(RunProgram(p, config, BindBuffers({{data.data(), 16}})).ok());
  EXPECT_EQ(data[0], 100);
  EXPECT_EQ(data[1], 100);
  EXPECT_EQ(data[2], 200);
  EXPECT_EQ(data[3], 200);
}

TEST(InterpTest, IfWithoutElseFallsThrough) {
  KernelBuilder kb("noelse");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  Val cond = kb.CmpEq(gid, kb.ConstI(I32(), 1));
  kb.If(cond, [&] { kb.Store(out, gid, kb.ConstI(I32(), 5)); });
  Program p = *kb.Build();
  std::vector<std::int32_t> data(2, -3);
  LaunchConfig config;
  config.global_size = {2, 1, 1};
  ASSERT_TRUE(RunProgram(p, config, BindBuffers({{data.data(), 8}})).ok());
  EXPECT_EQ(data[0], -3);
  EXPECT_EQ(data[1], 5);
}

TEST(InterpTest, VectorLoadComputeStore) {
  KernelBuilder kb("vec4");
  auto in = kb.ArgBuffer("in", ScalarType::kF32, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val base = kb.Binary(Opcode::kMul, kb.GlobalId(0), kb.ConstI(I32(), 4));
  Val v = kb.Load(in, base, 0, 4);
  kb.Store(out, base, v * 2.0);
  Program p = *kb.Build();
  std::vector<float> src = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> dst(8, 0);
  LaunchConfig config;
  config.global_size = {2, 1, 1};
  ASSERT_TRUE(RunProgram(p, config,
                         BindBuffers({{src.data(), 32}, {dst.data(), 32}}))
                  .ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(dst[static_cast<std::size_t>(i)],
                    2.0f * src[static_cast<std::size_t>(i)]);
  }
}

TEST(InterpTest, AtomicAddAccumulatesAcrossWorkItems) {
  KernelBuilder kb("atomic");
  auto counter = kb.ArgBuffer("counter", ScalarType::kI32, ArgKind::kBufferRW);
  kb.AtomicAdd(counter, kb.ConstI(I32(), 0), kb.ConstI(I32(), 1));
  Program p = *kb.Build();
  std::int32_t count = 0;
  LaunchConfig config;
  config.global_size = {100, 1, 1};
  config.local_size = {10, 1, 1};
  auto run = RunProgram(p, config, BindBuffers({{&count, 4}}));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(count, 100);
  EXPECT_EQ(run->atomics, 100u);
}

TEST(InterpTest, BarrierPhasedExecutionSharesLocalArray) {
  // Work-item i writes local[i]; after the barrier, work-item i reads
  // local[wg-1-i]. Correct only if all writes complete before any read.
  KernelBuilder kb("swap");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  auto local = kb.LocalArray("tmp", ScalarType::kI32, 8);
  Val lid = kb.LocalId(0);
  kb.Store(local, lid, lid);
  kb.Barrier();
  Val mirrored = kb.Binary(Opcode::kSub, kb.ConstI(I32(), 7), lid);
  kb.Store(out, kb.GlobalId(0), kb.Load(local, mirrored));
  Program p = *kb.Build();

  std::vector<std::int32_t> data(8, -1);
  std::vector<std::byte> scratch(64);
  Bindings b = BindBuffers({{data.data(), 32}});
  b.local_scratch = {scratch.data(), 0xF0000, scratch.size()};
  LaunchConfig config;
  config.global_size = {8, 1, 1};
  config.local_size = {8, 1, 1};
  auto run = RunProgram(p, config, std::move(b));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(data[static_cast<std::size_t>(i)], 7 - i);
  }
  EXPECT_EQ(run->barriers_crossed, 1u);
}

TEST(InterpTest, OutOfBoundsLoadFails) {
  KernelBuilder kb("oob");
  auto in = kb.ArgBuffer("in", ScalarType::kF32, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val idx = kb.ConstI(I32(), 100);
  kb.Store(out, kb.ConstI(I32(), 0), kb.Load(in, idx));
  Program p = *kb.Build();
  std::vector<float> small(4), dst(4);
  auto run = RunProgram(p, LaunchConfig{},
                        BindBuffers({{small.data(), 16}, {dst.data(), 16}}));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kOutOfRange);
}

TEST(InterpTest, IntegerDivisionByZeroFails) {
  KernelBuilder kb("divz");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val one = kb.ConstI(I32(), 1);
  Val zero = kb.ConstI(I32(), 0);
  kb.Store(out, zero, kb.Binary(Opcode::kIDiv, one, zero));
  Program p = *kb.Build();
  std::int32_t result = 0;
  auto run = RunProgram(p, LaunchConfig{}, BindBuffers({{&result, 4}}));
  EXPECT_FALSE(run.ok());
}

TEST(InterpTest, MismatchedBindingsRejected) {
  KernelBuilder kb("args");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  kb.Store(out, kb.ConstI(I32(), 0), kb.ConstI(I32(), 1));
  Program p = *kb.Build();
  auto run = RunProgram(p, LaunchConfig{}, Bindings{});  // no buffers
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kInvalidArgument);
}

TEST(InterpTest, InvalidNdRangeRejected) {
  KernelBuilder kb("bad");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  kb.Store(out, kb.ConstI(I32(), 0), kb.ConstI(I32(), 1));
  Program p = *kb.Build();
  std::int32_t x = 0;
  LaunchConfig config;
  config.global_size = {10, 1, 1};
  config.local_size = {3, 1, 1};  // does not divide 10
  EXPECT_FALSE(RunProgram(p, config, BindBuffers({{&x, 4}})).ok());
}

TEST(InterpTest, OpHistogramCountsMatch) {
  KernelBuilder kb("hist");
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val a = kb.ConstF(F32(4), 1.0);
  Val b = kb.ConstF(F32(4), 2.0);
  Val c = a * b;  // one f32x4 mul
  kb.Store(out, kb.ConstI(I32(), 0), c);
  Program p = *kb.Build();
  std::vector<float> data(4);
  auto run = RunProgram(p, LaunchConfig{}, BindBuffers({{data.data(), 16}}));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->ops.Get(OpClass::kArithMul, ScalarType::kF32, 4), 1u);
  EXPECT_EQ(run->ops.TotalClass(OpClass::kStore), 1u);
  EXPECT_EQ(run->load_bytes, 0u);
  EXPECT_EQ(run->store_bytes, 16u);
}

TEST(InterpTest, ImbalanceFactorOneForUniformWork) {
  KernelBuilder kb("uniform");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  kb.Store(out, kb.GlobalId(0), kb.ConstI(I32(), 1));
  Program p = *kb.Build();
  std::vector<std::int32_t> data(64);
  LaunchConfig config;
  config.global_size = {64, 1, 1};
  config.local_size = {8, 1, 1};
  auto run = RunProgram(p, config, BindBuffers({{data.data(), 256}}));
  ASSERT_TRUE(run.ok());
  EXPECT_DOUBLE_EQ(run->imbalance_factor(), 1.0);
}

TEST(InterpTest, ImbalanceFactorGrowsWithSkewedWork) {
  // Work-item 0 of each group loops 100x, the rest do nothing.
  KernelBuilder kb("skewed");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferRW);
  Val lid = kb.LocalId(0);
  Val heavy = kb.CmpEq(lid, kb.ConstI(I32(), 0));
  kb.If(heavy, [&] {
    kb.For("i", kb.ConstI(I32(), 0), kb.ConstI(I32(), 100), 1, [&](Val i) {
      kb.Store(out, kb.ConstI(I32(), 0), i);
    });
  });
  Program p = *kb.Build();
  std::int32_t sink = 0;
  LaunchConfig config;
  config.global_size = {64, 1, 1};
  config.local_size = {16, 1, 1};
  auto run = RunProgram(p, config, BindBuffers({{&sink, 4}}));
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->imbalance_factor(), 5.0);
}

TEST(InterpTest, MemorySinkSeesAddresses) {
  KernelBuilder kb("addr");
  auto in = kb.ArgBuffer("in", ScalarType::kF32, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  kb.Store(out, gid, kb.Load(in, gid, 1));
  Program p = *kb.Build();

  std::vector<float> src(8), dst(8);
  Bindings b = BindBuffers({{src.data(), 32}, {dst.data(), 32}});
  const std::uint64_t in_addr = b.buffers[0].sim_addr;
  const std::uint64_t out_addr = b.buffers[1].sim_addr;
  auto compiled = vm::CompileProgram(p);
  ASSERT_TRUE(compiled.ok());
  auto executor =
      vm::VmExecutor::Create(&p, *std::move(compiled), LaunchConfig{}, b);
  ASSERT_TRUE(executor.ok());
  std::vector<MemEvent> events;
  MemRecorder recorder([&](std::span<const MemEvent> chunk) {
    events.insert(events.end(), chunk.begin(), chunk.end());
  });
  WorkGroupRun run;
  ASSERT_TRUE(executor->RunGroup({0, 0, 0}, &recorder, &run).ok());
  EXPECT_TRUE(events.empty()) << "nothing reaches the consumer before a flush";
  recorder.Flush();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, MemEvent::kRead);
  EXPECT_EQ(events[0].addr, in_addr + 4);  // offset 1 element
  EXPECT_EQ(events[0].bytes, 4u);
  EXPECT_EQ(events[1].kind, MemEvent::kWrite);
  EXPECT_EQ(events[1].addr, out_addr);
}

}  // namespace
}  // namespace malisim::kir
