// Differential fuzz battery pinning the bytecode VM to the reference
// interpreter (reference_interp.h; `ctest -L kirvm`): randomized KIR
// programs — loops, ifs, barriers, __local traffic, atomics, integer
// division, vectors — must produce bit-identical buffers, operation
// histograms, per-opcode tallies, memory-access streams and step weights
// under the VM (serially and across host threads) and the interpreter, and
// must fail identically (same status, same partial counts) on runtime
// faults. The lane-batch suite at the end stresses the VM's batches
// (DESIGN.md §16): local sizes around the batch width, divergent branches
// and trip counts, ParallelFor loops, deliberate races and mid-batch
// faults.
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <tuple>
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

// ---- Lane batches ---------------------------------------------------------

/// Builds a random kernel over f (f32) and h (i32) whose work-items and
/// ParallelFor iterations branch apart: a per-item if/else, a per-item
/// trip count, and a ParallelFor with a divergent body that writes its own
/// element per (item, iteration). With `racy`, items and iterations also
/// read and write elements their neighbours write, so batches must roll
/// back. `local` sizes the __local tile of the optional barrier phase.
Program RandomBatchProgram(std::uint64_t seed, std::uint64_t local,
                           bool racy) {
  Xoshiro256 rng(seed * 7919 + local);
  KernelBuilder kb("vmbatch_" + std::to_string(seed));
  auto f = kb.ArgBuffer("f", ScalarType::kF32, ArgKind::kBufferRW);
  auto h = kb.ArgBuffer("h", ScalarType::kI32, ArgKind::kBufferRW);
  const bool use_local = rng.NextDouble() < 0.4;
  BufferRef tile;
  if (use_local) {
    tile = kb.LocalArray("tile", ScalarType::kF32,
                         static_cast<std::uint32_t>(local));
  }
  Val gid = kb.GlobalId(0);
  Val lid = kb.LocalId(0);
  auto ci = [&](std::int64_t v) { return kb.ConstI(I32(), v); };
  auto cf = [&](double v) { return kb.ConstF(F32(), v); };
  Val gsize = kb.GlobalSize(0);

  Val acc = kb.Var(F32(), "acc");
  kb.Assign(acc, kb.Load(f, gid));
  // Per-item if/else.
  const std::int64_t m = 2 + static_cast<std::int64_t>(rng.NextBounded(4));
  kb.If(
      kb.CmpEq(kb.Binary(Opcode::kIRem, gid, ci(m)), ci(0)),
      [&] { kb.Assign(acc, acc * cf(1.5)); },
      [&] { kb.Assign(acc, acc + kb.Sqrt(kb.Abs(acc))); });
  // Per-item trip count.
  const std::int64_t k = 2 + static_cast<std::int64_t>(rng.NextBounded(6));
  kb.For("t", ci(0), kb.Binary(Opcode::kIRem, gid, ci(k)), 1, [&](Val t) {
    kb.Assign(acc, acc + kb.Load(f, kb.Binary(Opcode::kIRem, gid + t, gsize)));
  });
  // ParallelFor with a divergent body: iteration p of item gid owns
  // element out0 + gid * trips + p.
  const std::int64_t trips = 1 + static_cast<std::int64_t>(rng.NextBounded(20));
  Val out0 = gsize;
  kb.ParallelFor("p", ci(0), ci(trips), 1, [&](Val p) {
    Val mine = out0 + gid * ci(trips) + p;
    Val v = kb.Load(f, kb.Binary(Opcode::kIRem, gid + p, gsize)) +
            kb.Convert(p, ScalarType::kF32);
    kb.If(kb.CmpLt(kb.Binary(Opcode::kIRem, p + gid, ci(3)), ci(1)),
          [&] { kb.Store(f, mine, v * cf(0.5)); },
          [&] {
            kb.For("q", ci(0), kb.Binary(Opcode::kIRem, p, ci(4)), 1,
                   [&](Val q) {
                     kb.Store(f, mine, v + kb.Convert(q, ScalarType::kF32));
                   });
          });
    if (racy) {
      // Iterations p and p + 1 share an element.
      Val shared = out0 + gid * ci(trips) + kb.Binary(Opcode::kIDiv, p, ci(2));
      kb.Store(f, shared, kb.Load(f, shared + ci(1)) + cf(1.0));
    }
  });
  if (racy) {
    // Item gid reads what item gid + 1 writes and writes what gid - 1
    // reads.
    Val half = kb.Binary(Opcode::kIDiv, gid, ci(2));
    kb.Store(f, half, kb.Load(f, half + ci(1)) + acc);
  }
  if (use_local) {
    kb.Store(tile, lid, acc);
    kb.Barrier();
    kb.Assign(acc, acc + kb.Load(tile, kb.Binary(Opcode::kIRem, lid + ci(1),
                                                 kb.LocalSize(0))));
  }
  if (rng.NextDouble() < 0.5) {
    kb.AtomicAdd(h, kb.Binary(Opcode::kIRem, gid, ci(16)), ci(1));
  }
  kb.Store(f, gid, acc);
  return *kb.Build();
}

/// Everything one engine produced for a batch program.
struct BatchOut {
  Status status = Status::Ok();
  std::vector<float> f;
  std::vector<std::int32_t> h;
  WorkGroupRun run;
  std::array<std::uint64_t, kNumOpcodeValues> tally{};
  std::vector<MemEvent> stream;
  BatchStats batches;  // the VM's, when profiled
};

/// Runs `p` over `groups` work-groups of `local` items under the oracle or
/// the VM, recording the memory stream when `record` is set; f holds
/// `f_elems` elements (0: enough for RandomBatchProgram). `profiled`
/// attaches a HostTimeSink to the VM, which reports its batch counts and
/// runs the sampling variant of the dispatch loop.
BatchOut ExecuteBatch(const Program& p, Engine engine, std::uint64_t local,
                      std::uint64_t groups, bool record,
                      std::uint64_t f_elems = 0, bool profiled = true) {
  BatchOut out;
  const std::uint64_t global = local * groups;
  out.f.resize(f_elems != 0 ? f_elems : global * 24 + 64);
  for (std::size_t i = 0; i < out.f.size(); ++i) {
    out.f[i] = 0.5f + 0.03f * static_cast<float>(i % 97);
  }
  out.h.assign(16, 0);
  std::vector<std::byte> scratch(local * 4, std::byte{0});
  Bindings b;
  b.buffers = {{reinterpret_cast<std::byte*>(out.f.data()), 0x10000,
                out.f.size() * 4},
               {reinterpret_cast<std::byte*>(out.h.data()), 0x80000,
                out.h.size() * 4}};
  if (!p.locals.empty()) {
    b.local_scratch = {scratch.data(), 0x90000, scratch.size()};
  }
  LaunchConfig config;
  config.global_size = {global, 1, 1};
  config.local_size = {local, 1, 1};
  MemRecorder recorder([&](std::span<const MemEvent> chunk) {
    out.stream.insert(out.stream.end(), chunk.begin(), chunk.end());
  });
  MemRecorder* rec = record ? &recorder : nullptr;
  if (engine == Engine::kReference) {
    StatusOr<ReferenceInterp> interp =
        ReferenceInterp::Create(&p, config, std::move(b));
    EXPECT_TRUE(interp.ok());
    interp->set_opcode_tally(out.tally.data());
    out.status = interp->RunAllGroups(rec, &out.run);
  } else {
    StatusOr<vm::VmExecutor> executor = vm::VmExecutor::Create(
        &p, *vm::CompileProgram(p), config, std::move(b));
    EXPECT_TRUE(executor.ok());
    executor->set_opcode_tally(out.tally.data());
    HostTimeSink sink;
    if (profiled) executor->set_host_time(&sink);
    out.status = executor->RunAllGroups(rec, &out.run);
    out.batches = sink.batches;
  }
  recorder.Flush();
  return out;
}

/// The oracle's and the VM's runs agree bit for bit, faults included.
void ExpectBatchOutsEqual(const BatchOut& a, const BatchOut& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.status.message(), b.status.message());
  EXPECT_EQ(a.f, b.f);
  EXPECT_EQ(a.h, b.h);
  ExpectRunsEqual(a.run, b.run);
  for (int op = 0; op < kNumOpcodeValues; ++op) {
    EXPECT_EQ(a.tally[static_cast<std::size_t>(op)],
              b.tally[static_cast<std::size_t>(op)])
        << "opcode " << OpcodeName(static_cast<Opcode>(op));
  }
  ASSERT_EQ(a.stream.size(), b.stream.size());
  for (std::size_t i = 0; i < a.stream.size(); ++i) {
    EXPECT_EQ(a.stream[i].addr, b.stream[i].addr) << "event " << i;
    EXPECT_EQ(a.stream[i].bytes, b.stream[i].bytes) << "event " << i;
    EXPECT_EQ(a.stream[i].kind, b.stream[i].kind) << "event " << i;
  }
}

using BatchCase = std::tuple<std::uint64_t /*seed*/, std::uint64_t /*local*/>;

class VmBatchFuzzTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(VmBatchFuzzTest, MatchesOracleWithAndWithoutRecorder) {
  const auto [seed, local] = GetParam();
  for (const bool racy : {false, true}) {
    const Program p = RandomBatchProgram(seed, local, racy);
    for (const bool record : {true, false}) {
      SCOPED_TRACE(std::string(racy ? "racy" : "race-free") +
                   (record ? ", recorded" : ", unrecorded"));
      const BatchOut oracle =
          ExecuteBatch(p, Engine::kReference, local, 3, record);
      EXPECT_TRUE(oracle.status.ok()) << oracle.status.ToString();
      for (const bool profiled : {false, true}) {
        SCOPED_TRACE(profiled ? "profiled" : "unprofiled");
        ExpectBatchOutsEqual(
            oracle, ExecuteBatch(p, Engine::kVm, local, 3, record, 0, profiled));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Batches, VmBatchFuzzTest,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 13),
                       ::testing::Values<std::uint64_t>(1, 3, 8, 13, 64)));

TEST(VmBatchTest, RacingItemsRollBackAndMatchTheOracle) {
  // Item gid stores the element item gid + 1 loads: every batch races.
  KernelBuilder kb("racy_items");
  auto f = kb.ArgBuffer("f", ScalarType::kF32, ArgKind::kBufferRW);
  kb.ArgBuffer("h", ScalarType::kI32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  kb.Store(f, gid, kb.Load(f, gid + kb.ConstI(I32(), 1)) +
                       kb.Load(f, gid));
  const Program p = *kb.Build();
  const BatchOut oracle = ExecuteBatch(p, Engine::kReference, 16, 2, true);
  const BatchOut vm = ExecuteBatch(p, Engine::kVm, 16, 2, true);
  ExpectBatchOutsEqual(oracle, vm);
  // Every batch of the two 16-item groups races.
  EXPECT_EQ(vm.batches.rollbacks[static_cast<int>(Rollback::kRace)],
            static_cast<std::uint64_t>(
                2 * ((16 + vm::kBatchWidth - 1) / vm::kBatchWidth)));
}

TEST(VmBatchTest, StoresToEachOthersBytesRollBackAndMatchTheOracle) {
  // Item gid stores 1 to element gid, then 2 to element gid ^ 1, and
  // loads nothing: in item order the odd item's stores land last, in
  // lockstep the second store does, so only the write-write check keeps
  // the order.
  KernelBuilder kb("store_store");
  auto f = kb.ArgBuffer("f", ScalarType::kF32, ArgKind::kBufferRW);
  kb.ArgBuffer("h", ScalarType::kI32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  kb.Store(f, gid, kb.ConstF(F32(), 1));
  kb.Store(f, gid ^ kb.ConstI(I32(), 1), kb.ConstF(F32(), 2));
  const Program p = *kb.Build();
  const BatchOut oracle = ExecuteBatch(p, Engine::kReference, 16, 2, true);
  const BatchOut vm = ExecuteBatch(p, Engine::kVm, 16, 2, true);
  ExpectBatchOutsEqual(oracle, vm);
  EXPECT_EQ(vm.batches.rollbacks[static_cast<int>(Rollback::kRace)],
            static_cast<std::uint64_t>(
                2 * ((16 + vm::kBatchWidth - 1) / vm::kBatchWidth)));
}

TEST(VmBatchTest, DisjointBytesInOverlappingRangesDoNotRollBack) {
  // Lane l writes bytes [8l, 8l + 4) and reads [8l + 4, 8l + 8): the
  // lanes' ranges interleave but no byte is shared, so the exact check
  // lets every batch commit.
  KernelBuilder kb("interleaved");
  auto f = kb.ArgBuffer("f", ScalarType::kF32, ArgKind::kBufferRW);
  kb.ArgBuffer("h", ScalarType::kI32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  Val two = gid + gid;
  kb.Store(f, two, kb.Load(f, two + kb.ConstI(I32(), 1)) * kb.ConstF(F32(), 2));
  kb.Store(f, kb.ConstI(I32(), 0) + (kb.GlobalSize(0) + kb.GlobalSize(0)) -
                  two - kb.ConstI(I32(), 1),
           kb.ConstF(F32(), 3));
  const Program p = *kb.Build();
  const BatchOut oracle = ExecuteBatch(p, Engine::kReference, 16, 2, true);
  const BatchOut vm = ExecuteBatch(p, Engine::kVm, 16, 2, true);
  ExpectBatchOutsEqual(oracle, vm);
  EXPECT_EQ(vm.batches.rollbacks[static_cast<int>(Rollback::kRace)], 0u);
  EXPECT_GT(vm.batches.full_width, 0u);
}

TEST(VmBatchTest, FaultInAMiddleLaneKeepsEarlierLanesOnly) {
  // Every item stores first; item 11, a middle lane of its batch, then
  // loads out of bounds. Items 0-10 must have stored, 12+ must not.
  KernelBuilder kb("mid_fault");
  auto f = kb.ArgBuffer("f", ScalarType::kF32, ArgKind::kBufferRW);
  kb.ArgBuffer("h", ScalarType::kI32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  kb.Store(f, gid, kb.ConstF(F32(), 7.0));
  Val far = kb.Select(kb.CmpEq(gid, kb.ConstI(I32(), 11)),
                      kb.ConstI(I32(), 1 << 20), gid);
  kb.Store(f, gid + kb.ConstI(I32(), 64), kb.Load(f, far));
  const Program p = *kb.Build();
  for (const bool record : {true, false}) {
    const BatchOut oracle =
        ExecuteBatch(p, Engine::kReference, 16, 2, record, 128);
    const BatchOut vm = ExecuteBatch(p, Engine::kVm, 16, 2, record, 128);
    EXPECT_FALSE(vm.status.ok());
    ExpectBatchOutsEqual(oracle, vm);
    EXPECT_EQ(vm.f[10], 7.0f);
    EXPECT_NE(vm.f[12], 7.0f);
    EXPECT_EQ(vm.batches.rollbacks[static_cast<int>(Rollback::kFault)], 1u);
  }
}

/// A one-item kernel whose ParallelFor runs `trips` iterations of `body`.
Program ParallelForProgram(
    const std::string& name, std::int64_t trips,
    const std::function<void(KernelBuilder&, BufferRef, Val)>& body) {
  KernelBuilder kb(name);
  auto f = kb.ArgBuffer("f", ScalarType::kF32, ArgKind::kBufferRW);
  kb.ArgBuffer("h", ScalarType::kI32, ArgKind::kBufferRW);
  kb.ParallelFor("p", kb.ConstI(I32(), 0), kb.ConstI(I32(), trips), 1,
                 [&](Val p) { body(kb, f, p); });
  kb.Store(f, kb.ConstI(I32(), 0), kb.ConstF(F32(), 1.0));
  return *kb.Build();
}

TEST(VmBatchTest, ParallelForFaultInAMiddleIteration) {
  const Program p = ParallelForProgram(
      "pfor_fault", 21, [](KernelBuilder& kb, BufferRef f, Val it) {
        kb.Store(f, it + kb.ConstI(I32(), 8), kb.ConstF(F32(), 5.0));
        Val far = kb.Select(kb.CmpEq(it, kb.ConstI(I32(), 11)),
                            kb.ConstI(I32(), 1 << 20), it);
        kb.Store(f, it + kb.ConstI(I32(), 40), kb.Load(f, far));
      });
  for (const bool record : {true, false}) {
    const BatchOut oracle = ExecuteBatch(p, Engine::kReference, 1, 1, record, 64);
    const BatchOut vm = ExecuteBatch(p, Engine::kVm, 1, 1, record, 64);
    EXPECT_FALSE(vm.status.ok());
    ExpectBatchOutsEqual(oracle, vm);
    EXPECT_EQ(vm.batches.rollbacks[static_cast<int>(Rollback::kFault)], 1u);
  }
}

TEST(VmBatchTest, ParallelForRacesRollBackAndMatchTheOracle) {
  // Iteration p adds element p - 1 into element p: a chain the sequential
  // loop resolves in order.
  const Program p = ParallelForProgram(
      "pfor_race", 30, [](KernelBuilder& kb, BufferRef f, Val it) {
        Val at = it + kb.ConstI(I32(), 1);
        kb.Store(f, at, kb.Load(f, it) + kb.Load(f, at));
      });
  const BatchOut oracle = ExecuteBatch(p, Engine::kReference, 1, 1, true, 64);
  const BatchOut vm = ExecuteBatch(p, Engine::kVm, 1, 1, true, 64);
  ExpectBatchOutsEqual(oracle, vm);
  EXPECT_GT(vm.batches.rollbacks[static_cast<int>(Rollback::kRace)], 0u);
}

TEST(VmBatchTest, LaneEventOverflowRollsBackAndMatchesTheOracle) {
  // 20000 loads per iteration overflow a lane's 16 k-event buffer.
  const Program p = ParallelForProgram(
      "pfor_cap", 9, [](KernelBuilder& kb, BufferRef f, Val it) {
        Val acc = kb.Var(F32(), "acc");
        kb.Assign(acc, kb.ConstF(F32(), 0.0));
        kb.For("k", kb.ConstI(I32(), 0), kb.ConstI(I32(), 20000), 1,
               [&](Val k) {
                 kb.Assign(acc, acc + kb.Load(f, kb.Binary(Opcode::kIRem, k,
                                                           kb.ConstI(I32(), 32))));
               });
        kb.Store(f, it + kb.ConstI(I32(), 32), acc);
      });
  const BatchOut oracle = ExecuteBatch(p, Engine::kReference, 1, 1, true, 64);
  const BatchOut vm = ExecuteBatch(p, Engine::kVm, 1, 1, true, 64);
  ExpectBatchOutsEqual(oracle, vm);
  EXPECT_EQ(vm.batches.rollbacks[static_cast<int>(Rollback::kEventCap)], 1u);
}

}  // namespace
}  // namespace malisim::kir
