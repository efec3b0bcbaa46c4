// Differential fuzz battery pinning the bytecode VM to the reference
// interpreter (reference_interp.h; `ctest -L kirvm`): randomized KIR
// programs — loops, ifs, barriers, __local traffic, atomics, integer
// division, vectors — must produce bit-identical buffers, operation
// histograms, per-opcode tallies, memory-access streams and step weights
// under the VM (serially and across host threads) and the interpreter, and
// must fail identically (same status, same partial counts) on runtime
// faults.
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "kir/builder.h"
#include "kir/interp.h"
#include "kir/vm/vm.h"
#include "reference_interp.h"

namespace malisim::kir {
namespace {

/// Builds a random kernel over one f32 buffer and one i32 histogram
/// buffer, with optional __local staging (through a barrier), optional
/// atomics, data-dependent control flow (the fusion path) and integer
/// div/rem with nonzero divisors.
Program RandomProgram(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  KernelBuilder kb("vmfuzz_" + std::to_string(seed));
  auto fbuf = kb.ArgBuffer("f", ScalarType::kF32, ArgKind::kBufferRW,
                           rng.NextDouble() < 0.5, false);
  auto ibuf = kb.ArgBuffer("h", ScalarType::kI32, ArgKind::kBufferRW);
  const bool use_local = rng.NextDouble() < 0.5;
  BufferRef tile;
  if (use_local) tile = kb.LocalArray("tile", ScalarType::kF32, 8);

  Val gid = kb.GlobalId(0);
  Val lid = kb.LocalId(0);
  const std::uint8_t lane_options[] = {1, 2, 4, 8};
  const std::uint8_t lanes = lane_options[rng.NextBounded(4)];

  std::vector<Val> pool;
  pool.push_back(kb.Splat(kb.Load(fbuf, gid), lanes));
  pool.push_back(kb.ConstF(F32(lanes), rng.NextDouble(0.5, 2.0)));
  pool.push_back(kb.Splat(kb.Convert(gid, ScalarType::kF32), lanes));

  const int ops = 6 + static_cast<int>(rng.NextBounded(14));
  for (int i = 0; i < ops; ++i) {
    Val a = pool[rng.NextBounded(pool.size())];
    Val b = pool[rng.NextBounded(pool.size())];
    switch (rng.NextBounded(9)) {
      case 0:
        pool.push_back(a + b);
        break;
      case 1:
        pool.push_back(a * b);
        break;
      case 2:
        pool.push_back(a - b);
        break;
      case 3:
        pool.push_back(kb.Min(a, b));
        break;
      case 4:
        pool.push_back(kb.Fma(a, b, pool[rng.NextBounded(pool.size())]));
        break;
      case 5:
        pool.push_back(kb.Abs(a));
        break;
      case 6:
        pool.push_back(kb.Sqrt(kb.Abs(a)));
        break;
      case 7:
        pool.push_back(kb.Select(kb.CmpLt(a, b), a, b));
        break;
      case 8:
        pool.push_back(
            kb.Slide(a, b, static_cast<int>(rng.NextBounded(lanes + 1))));
        break;
    }
  }

  // Integer path: div/rem with strictly positive divisors, feeding the
  // histogram index.
  Val divisor = kb.ConstI(I32(), 1 + static_cast<std::int64_t>(rng.NextBounded(7)));
  Val idx = kb.Binary(Opcode::kIDiv, gid + lid, divisor);
  idx = kb.Binary(Opcode::kIRem, idx + gid, kb.ConstI(I32(), 16));

  // A reduction loop over a scalar accumulator.
  Val acc = kb.Var(F32(lanes), "acc");
  kb.Assign(acc, pool.back());
  kb.For("i", kb.ConstI(I32(), 0),
         kb.ConstI(I32(), 1 + static_cast<std::int64_t>(rng.NextBounded(6))),
         1, [&](Val) {
           kb.Assign(acc, acc + pool[rng.NextBounded(pool.size())]);
         });

  // Data-dependent if/else: the scalar compare is single-use, so the
  // bytecode compiler fuses it into a compare-and-branch.
  Val probe = kb.Extract(acc, 0);
  kb.If(
      kb.CmpLt(probe, kb.ConstF(F32(), rng.NextDouble(0.0, 4.0))),
      [&] { kb.Assign(acc, acc + kb.ConstF(F32(lanes), 1.0)); },
      rng.NextDouble() < 0.5
          ? std::function<void()>([&] { kb.Assign(acc, acc * kb.ConstF(F32(lanes), 0.5)); })
          : std::function<void()>(nullptr));

  if (use_local) {
    // Every item writes its slot before the barrier and reads a
    // neighbour's after it, so all slots are defined in every group.
    kb.Store(tile, lid, kb.Extract(acc, 0));
    kb.Barrier();
    Val neighbour = kb.Binary(Opcode::kIRem, lid + kb.ConstI(I32(), 1),
                              kb.LocalSize(0));
    kb.Assign(acc, acc + kb.Splat(kb.Load(tile, neighbour), lanes));
  }

  if (rng.NextDouble() < 0.6) {
    kb.AtomicAdd(ibuf, idx, kb.ConstI(I32(), 1));
  }
  kb.Store(fbuf, gid, kb.VSum(acc));
  return *kb.Build();
}

/// The oracle, the VM, and the VM across four host threads
/// (kir::RunProgramParallel).
enum class Engine { kReference, kVm, kVmThreaded };

/// Runs every work-group of `p` serially under the oracle or the VM, with
/// the optional opcode tally and recorder attached.
Status RunAllGroups(Engine engine, const Program& p,
                    const LaunchConfig& config, Bindings b,
                    std::uint64_t* tally, MemRecorder* recorder,
                    WorkGroupRun* out) {
  if (engine == Engine::kReference) {
    StatusOr<ReferenceInterp> interp =
        ReferenceInterp::Create(&p, config, std::move(b));
    if (!interp.ok()) return interp.status();
    interp->set_opcode_tally(tally);
    return interp->RunAllGroups(recorder, out);
  }
  StatusOr<std::shared_ptr<const vm::CompiledProgram>> code =
      vm::CompileProgram(p);
  if (!code.ok()) return code.status();
  StatusOr<vm::VmExecutor> executor =
      vm::VmExecutor::Create(&p, *std::move(code), config, std::move(b));
  if (!executor.ok()) return executor.status();
  executor->set_opcode_tally(tally);
  return executor->RunAllGroups(recorder, out);
}

struct RunOut {
  std::vector<float> f;
  std::vector<std::int32_t> h;
  WorkGroupRun run;
};

/// Runs `p` under `engine` on fresh buffers.
RunOut Execute(const Program& p, Engine engine) {
  RunOut out;
  out.f.resize(64);
  for (std::size_t i = 0; i < out.f.size(); ++i) {
    out.f[i] = 0.25f + 0.01f * static_cast<float>(i);
  }
  out.h.assign(16, 0);
  std::vector<std::byte> scratch(64, std::byte{0});
  Bindings b;
  b.buffers = {{reinterpret_cast<std::byte*>(out.f.data()), 0x1000,
                out.f.size() * 4},
               {reinterpret_cast<std::byte*>(out.h.data()), 0x2000,
                out.h.size() * 4}};
  if (!p.locals.empty()) {
    b.local_scratch = {scratch.data(), 0x9000, scratch.size()};
  }
  LaunchConfig config;
  config.global_size = {32, 1, 1};
  config.local_size = {8, 1, 1};
  if (engine == Engine::kVmThreaded) {
    StatusOr<WorkGroupRun> run = RunProgramParallel(p, config, b, 4);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    if (run.ok()) out.run = *std::move(run);
    return out;
  }
  const Status st = RunAllGroups(engine, p, config, std::move(b), nullptr,
                                 nullptr, &out.run);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

void ExpectRunsEqual(const WorkGroupRun& a, const WorkGroupRun& b) {
  EXPECT_EQ(a.ops.Total(), b.ops.Total());
  a.ops.ForEach([&](OpClass c, ScalarType t, std::uint8_t lanes,
                    std::uint64_t n) {
    EXPECT_EQ(b.ops.Get(c, t, lanes), n)
        << "class " << static_cast<int>(c) << " type " << static_cast<int>(t)
        << " lanes " << static_cast<int>(lanes);
  });
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.load_bytes, b.load_bytes);
  EXPECT_EQ(a.store_bytes, b.store_bytes);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.barriers_crossed, b.barriers_crossed);
  EXPECT_EQ(a.work_items, b.work_items);
  EXPECT_EQ(a.item_weight_sum, b.item_weight_sum);
  EXPECT_EQ(a.weighted_group_cost, b.weighted_group_cost);
}

class VmDiffFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmDiffFuzzTest, BytecodeMatchesInterp) {
  const Program p = RandomProgram(GetParam());
  const RunOut interp = Execute(p, Engine::kReference);
  const RunOut bytecode = Execute(p, Engine::kVm);
  EXPECT_EQ(interp.f, bytecode.f);
  EXPECT_EQ(interp.h, bytecode.h);
  ExpectRunsEqual(interp.run, bytecode.run);
}

TEST_P(VmDiffFuzzTest, BytecodeMatchesInterpAcrossThreads) {
  const Program p = RandomProgram(GetParam());
  const RunOut reference = Execute(p, Engine::kReference);
  const RunOut threaded = Execute(p, Engine::kVmThreaded);
  EXPECT_EQ(reference.f, threaded.f);
  EXPECT_EQ(reference.h, threaded.h);
  ExpectRunsEqual(reference.run, threaded.run);
}

TEST_P(VmDiffFuzzTest, OpcodeTalliesAndMemoryStreamsMatch) {
  const Program p = RandomProgram(GetParam());
  std::array<std::array<std::uint64_t, kNumOpcodeValues>, 2> tallies{};
  std::array<std::vector<MemEvent>, 2> events;
  std::array<RunOut, 2> outs;
  std::array<WorkGroupRun, 2> runs;
  const Engine engines[] = {Engine::kReference, Engine::kVm};
  for (int e = 0; e < 2; ++e) {
    RunOut& out = outs[static_cast<std::size_t>(e)];
    out.f.assign(64, 1.5f);
    out.h.assign(16, 0);
    std::vector<std::byte> scratch(64, std::byte{0});
    Bindings b;
    b.buffers = {{reinterpret_cast<std::byte*>(out.f.data()), 0x1000,
                  out.f.size() * 4},
                 {reinterpret_cast<std::byte*>(out.h.data()), 0x2000,
                  out.h.size() * 4}};
    if (!p.locals.empty()) {
      b.local_scratch = {scratch.data(), 0x9000, scratch.size()};
    }
    LaunchConfig config;
    config.global_size = {32, 1, 1};
    config.local_size = {8, 1, 1};
    std::vector<MemEvent>& stream = events[static_cast<std::size_t>(e)];
    MemRecorder recorder([&](std::span<const MemEvent> chunk) {
      stream.insert(stream.end(), chunk.begin(), chunk.end());
    });
    const Status st = RunAllGroups(
        engines[e], p, config, std::move(b),
        tallies[static_cast<std::size_t>(e)].data(), &recorder,
        &runs[static_cast<std::size_t>(e)]);
    ASSERT_TRUE(st.ok()) << st.ToString();
    recorder.Flush();
  }
  EXPECT_EQ(outs[0].f, outs[1].f);
  EXPECT_EQ(outs[0].h, outs[1].h);
  ExpectRunsEqual(runs[0], runs[1]);
  for (int op = 0; op < kNumOpcodeValues; ++op) {
    EXPECT_EQ(tallies[0][static_cast<std::size_t>(op)],
              tallies[1][static_cast<std::size_t>(op)])
        << "opcode " << OpcodeName(static_cast<Opcode>(op));
  }
  ASSERT_EQ(events[0].size(), events[1].size());
  for (std::size_t i = 0; i < events[0].size(); ++i) {
    EXPECT_EQ(events[0][i].addr, events[1][i].addr) << "event " << i;
    EXPECT_EQ(events[0][i].bytes, events[1][i].bytes) << "event " << i;
    EXPECT_EQ(events[0][i].kind, events[1][i].kind) << "event " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmDiffFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 33));

/// Runs a faulting program under one engine, returning the status plus the
/// partial counts and buffer contents at the fault.
struct FaultOut {
  Status status = Status::Ok();
  WorkGroupRun run;
  std::vector<float> f;
  std::array<std::uint64_t, kNumOpcodeValues> tally{};
};

FaultOut ExecuteFault(const Program& p, Engine engine,
                      std::uint64_t buffer_elems) {
  FaultOut out;
  out.f.assign(buffer_elems, 2.0f);
  Bindings b;
  b.buffers = {{reinterpret_cast<std::byte*>(out.f.data()), 0x1000,
                buffer_elems * 4}};
  LaunchConfig config;
  config.global_size = {32, 1, 1};
  config.local_size = {8, 1, 1};
  out.status = RunAllGroups(engine, p, config, std::move(b),
                           out.tally.data(), nullptr, &out.run);
  return out;
}

void ExpectFaultsEqual(const Program& p, std::uint64_t buffer_elems) {
  const FaultOut interp = ExecuteFault(p, Engine::kReference, buffer_elems);
  const FaultOut bytecode = ExecuteFault(p, Engine::kVm, buffer_elems);
  EXPECT_FALSE(interp.status.ok());
  EXPECT_EQ(interp.status.code(), bytecode.status.code());
  EXPECT_EQ(interp.status.message(), bytecode.status.message());
  // The fault-injection replay contract: everything already merged into
  // the output when the fault fired must match, so resilience retries see
  // the same world under either engine.
  EXPECT_EQ(interp.f, bytecode.f);
  ExpectRunsEqual(interp.run, bytecode.run);
  for (int op = 0; op < kNumOpcodeValues; ++op) {
    EXPECT_EQ(interp.tally[static_cast<std::size_t>(op)],
              bytecode.tally[static_cast<std::size_t>(op)])
        << "opcode " << OpcodeName(static_cast<Opcode>(op));
  }
}

TEST(VmDiffFaultTest, OutOfBoundsLoadFailsIdentically) {
  KernelBuilder kb("oob_load");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  kb.Store(buf, gid, kb.Load(buf, gid + gid));  // faults once 2*gid >= size
  const Program p = *kb.Build();
  ExpectFaultsEqual(p, 16);
}

TEST(VmDiffFaultTest, OutOfBoundsStoreFailsIdentically) {
  KernelBuilder kb("oob_store");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  kb.Store(buf, gid + gid, kb.Load(buf, gid));
  const Program p = *kb.Build();
  ExpectFaultsEqual(p, 16);
}

TEST(VmDiffFaultTest, IntegerDivisionByZeroFailsIdentically) {
  KernelBuilder kb("div_zero");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  // Divisor hits zero at gid == 8; items 0..7 complete first.
  Val q = kb.Binary(Opcode::kIDiv, kb.ConstI(I32(), 64),
                    gid - kb.ConstI(I32(), 8));
  kb.Store(buf, gid, kb.Convert(q, ScalarType::kF32));
  const Program p = *kb.Build();
  ExpectFaultsEqual(p, 64);
}

TEST(VmDiffFaultTest, IntegerDivisionOverflowFailsIdentically) {
  // INT_MIN / -1 has no i32 quotient (the host would trap): both engines
  // fault at gid == 8, the first item whose divisor is -1.
  for (const Opcode op : {Opcode::kIDiv, Opcode::kIRem, Opcode::kDiv}) {
    KernelBuilder kb("div_overflow");
    auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
    Val gid = kb.GlobalId(0);
    Val divisor = kb.Select(kb.CmpLt(gid, kb.ConstI(I32(), 8)),
                            kb.ConstI(I32(), 2), kb.ConstI(I32(), -1));
    Val q = kb.Binary(op, kb.ConstI(I32(), INT32_MIN), divisor);
    kb.Store(buf, gid, kb.Convert(q, ScalarType::kF32));
    const Program p = *kb.Build();
    const FaultOut vm = ExecuteFault(p, Engine::kVm, 64);
    EXPECT_EQ(vm.status.message(), "integer division overflow");
    EXPECT_EQ(vm.run.work_items, 8u);
    ExpectFaultsEqual(p, 64);
  }
}

}  // namespace
}  // namespace malisim::kir
