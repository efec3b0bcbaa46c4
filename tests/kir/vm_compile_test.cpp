// Unit tests for the KIR -> bytecode compiler (kir/vm/compile.cpp): fusion
// rules, side-table (tally / src_pc / weight) integrity, const-pool
// broadcasting, register compaction, and error parity with the reference
// interpreter. The execution-level equivalence lives in vm_diff_fuzz_test.
#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "kir/builder.h"
#include "kir/interp.h"
#include "kir/vm/bytecode.h"
#include "kir/vm/vm.h"

namespace malisim::kir {
namespace {

using vm::CompiledProgram;
using vm::VOp;

std::shared_ptr<const CompiledProgram> Compile(const Program& p) {
  StatusOr<std::shared_ptr<const CompiledProgram>> compiled =
      vm::CompileProgram(p);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return compiled.ok() ? *std::move(compiled) : nullptr;
}

std::size_t CountOp(const CompiledProgram& cp, VOp op) {
  return static_cast<std::size_t>(
      std::count_if(cp.code.begin(), cp.code.end(),
                    [op](const vm::VInstr& in) { return in.op == op; }));
}

/// Number of tally slots attached to the vpc-th instruction.
std::size_t TallyCount(const CompiledProgram& cp, std::size_t vpc) {
  return cp.tally_begin[vpc + 1] - cp.tally_begin[vpc];
}

TEST(VmCompileTest, FusesSingleUseScalarCompareIntoBranch) {
  KernelBuilder kb("fused");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  Val x = kb.Load(buf, gid);
  kb.If(kb.CmpLt(x, kb.ConstF(F32(), 1.0)),
        [&] { kb.Store(buf, gid, x + x); });
  const Program p = *kb.Build();
  const auto cp = Compile(p);
  ASSERT_NE(cp, nullptr);

  ASSERT_EQ(CountOp(*cp, VOp::kCmpBrLtF32), 1u);
  EXPECT_EQ(CountOp(*cp, VOp::kCmpLtF32), 0u);
  EXPECT_EQ(CountOp(*cp, VOp::kBrZero), 0u);
  // The fused pair collapses two source instructions into one VInstr.
  EXPECT_EQ(cp->code.size(), p.code.size() - 1);

  const auto it = std::find_if(
      cp->code.begin(), cp->code.end(),
      [](const vm::VInstr& in) { return in.op == VOp::kCmpBrLtF32; });
  const std::size_t vpc =
      static_cast<std::size_t>(std::distance(cp->code.begin(), it));
  // Two source instructions' worth of accounting on the fused op: the
  // compare first, then the kIfBegin, and a step weight of 2.
  ASSERT_EQ(TallyCount(*cp, vpc), 2u);
  EXPECT_EQ(cp->tally_slots[cp->tally_begin[vpc]].op, Opcode::kCmpLt);
  EXPECT_EQ(cp->tally_slots[cp->tally_begin[vpc] + 1].op, Opcode::kIfBegin);
  EXPECT_EQ(cp->weight[vpc], 2);
}

TEST(VmCompileTest, NoFusionWhenCompareResultIsReused) {
  KernelBuilder kb("reused");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  Val x = kb.Load(buf, gid);
  Val cond = kb.CmpLt(x, kb.ConstF(F32(), 1.0));
  Val y = kb.Select(cond, x, x + x);  // second use keeps the mask alive
  kb.If(cond, [&] { kb.Store(buf, gid, y); });
  const Program p = *kb.Build();
  const auto cp = Compile(p);
  ASSERT_NE(cp, nullptr);

  EXPECT_EQ(CountOp(*cp, VOp::kCmpBrLtF32), 0u);
  EXPECT_EQ(CountOp(*cp, VOp::kCmpLtF32), 1u);
  EXPECT_EQ(CountOp(*cp, VOp::kBrZero), 1u);
  // No fusion: the bytecode is instruction-for-instruction with the source.
  EXPECT_EQ(cp->code.size(), p.code.size());
}

TEST(VmCompileTest, NoFusionForVectorCompares) {
  KernelBuilder kb("vector_cmp");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  Val v = kb.Splat(kb.Load(buf, gid), 4);
  Val mask = kb.CmpLt(v, kb.ConstF(F32(4), 1.0));
  kb.Store(buf, gid, kb.Extract(kb.Select(mask, v, v + v), 0));
  const Program p = *kb.Build();
  const auto cp = Compile(p);
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(CountOp(*cp, VOp::kCmpLtF32), 1u);
  for (const vm::VInstr& in : cp->code) {
    const bool fused =
        static_cast<int>(in.op) >= static_cast<int>(VOp::kCmpBrLtF32) &&
        static_cast<int>(in.op) <= static_cast<int>(VOp::kCmpBrNeI64);
    EXPECT_FALSE(fused) << "fused op " << static_cast<int>(in.op);
  }
}

TEST(VmCompileTest, FusesReductionBodyIntoLoadFmaLoopEnd) {
  // The dmmm shape: the loop body `acc = fma(load a, load b, acc)` ends
  // load / fma / mov / loop-end, which the compiler collapses into one
  // kLoadFmaLoopEndF32 carrying all four source steps.
  KernelBuilder kb("reduction");
  auto a = kb.ArgBuffer("a", ScalarType::kF32, ArgKind::kBufferRO);
  auto b = kb.ArgBuffer("b", ScalarType::kF32, ArgKind::kBufferRO);
  auto c = kb.ArgBuffer("c", ScalarType::kF32, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  Val acc = kb.Var(F32(4), "acc");
  kb.Assign(acc, kb.ConstF(F32(4), 0.0));
  kb.For("k", kb.ConstI(I32(), 0), kb.ConstI(I32(), 64), 4, [&](Val k) {
    kb.Assign(acc, kb.Fma(kb.Load(a, k, 0, 4), kb.Load(b, k, 0, 4), acc));
  });
  kb.Store(c, gid, kb.VSum(acc));
  const Program p = *kb.Build();
  const auto cp = Compile(p);
  ASSERT_NE(cp, nullptr);

  ASSERT_EQ(CountOp(*cp, VOp::kLoadFmaLoopEndF32), 1u);
  EXPECT_EQ(CountOp(*cp, VOp::kLoopEnd), 0u);
  const auto it = std::find_if(
      cp->code.begin(), cp->code.end(),
      [](const vm::VInstr& in) { return in.op == VOp::kLoadFmaLoopEndF32; });
  const std::size_t vpc =
      static_cast<std::size_t>(std::distance(cp->code.begin(), it));
  EXPECT_EQ(cp->weight[vpc], 4);
  EXPECT_EQ(it->weight, 4);
  ASSERT_EQ(TallyCount(*cp, vpc), 4u);
  EXPECT_EQ(cp->tally_slots[cp->tally_begin[vpc]].op, Opcode::kLoad);
  EXPECT_EQ(cp->tally_slots[cp->tally_begin[vpc] + 1].op, Opcode::kFma);
  EXPECT_EQ(cp->tally_slots[cp->tally_begin[vpc] + 2].op, Opcode::kMov);
  EXPECT_EQ(cp->tally_slots[cp->tally_begin[vpc] + 3].op, Opcode::kLoopEnd);
  // The back-edge (high half of imm) re-enters the loop body at the first
  // unfused load, one instruction past the kLoopBegin.
  const std::size_t branch =
      static_cast<std::size_t>(static_cast<std::uint64_t>(it->imm) >> 32);
  ASSERT_LT(branch, cp->code.size());
  EXPECT_EQ(cp->code[branch].op, VOp::kLoad);
}

TEST(VmCompileTest, FusesLoadIntoSplatConsumer) {
  // The conv tap shape: `splat(load(w, t), 4)` becomes one kLoadSplatF32.
  KernelBuilder kb("tap");
  auto w = kb.ArgBuffer("w", ScalarType::kF32, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  Val v = kb.Splat(kb.Load(w, gid), 4);
  kb.Store(out, gid, kb.Extract(v, 0));
  const Program p = *kb.Build();
  const auto cp = Compile(p);
  ASSERT_NE(cp, nullptr);

  ASSERT_EQ(CountOp(*cp, VOp::kLoadSplatF32), 1u);
  const auto it = std::find_if(
      cp->code.begin(), cp->code.end(),
      [](const vm::VInstr& in) { return in.op == VOp::kLoadSplatF32; });
  const std::size_t vpc =
      static_cast<std::size_t>(std::distance(cp->code.begin(), it));
  EXPECT_EQ(cp->weight[vpc], 2);
  ASSERT_EQ(TallyCount(*cp, vpc), 2u);
  EXPECT_EQ(cp->tally_slots[cp->tally_begin[vpc]].op, Opcode::kLoad);
  EXPECT_EQ(cp->tally_slots[cp->tally_begin[vpc] + 1].op, Opcode::kSplat);
  // The load half keeps its own byte count: a 1-lane f32 element.
  EXPECT_EQ(it->access_bytes, 4u);
  EXPECT_EQ(it->lanes, 4);  // the splat's width drives the consumer body
}

TEST(VmCompileTest, SideTablesCoverEverySourceInstruction) {
  KernelBuilder kb("tables");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  Val acc = kb.Var(F32(), "acc");
  kb.Assign(acc, kb.Load(buf, gid));
  kb.For("i", kb.ConstI(I32(), 0), kb.ConstI(I32(), 4), 1,
         [&](Val) { kb.Assign(acc, acc * acc); });
  kb.If(kb.CmpLt(acc, kb.ConstF(F32(), 10.0)),
        [&] { kb.Assign(acc, acc + kb.ConstF(F32(), 1.0)); },
        [&] { kb.Assign(acc, kb.ConstF(F32(), 0.0)); });
  kb.Store(buf, gid, acc);
  const Program p = *kb.Build();
  const auto cp = Compile(p);
  ASSERT_NE(cp, nullptr);

  EXPECT_EQ(cp->source_len, p.code.size());
  EXPECT_EQ(cp->src_pc.size(), cp->code.size());
  EXPECT_EQ(cp->weight.size(), cp->code.size());
  ASSERT_EQ(cp->tally_begin.size(), cp->code.size() + 1);
  // Every source instruction is accounted for exactly once across the
  // flattened tally spans (that is what keeps opcode tallies and the
  // OpHistogram bit-identical to the interpreter).
  EXPECT_EQ(cp->tally_slots.size(), p.code.size());
  std::vector<bool> seen(p.code.size(), false);
  for (std::size_t vpc = 0; vpc < cp->code.size(); ++vpc) {
    EXPECT_LT(cp->src_pc[vpc], p.code.size());
    for (std::uint32_t s = cp->tally_begin[vpc]; s < cp->tally_begin[vpc + 1];
         ++s) {
      const Opcode op = cp->tally_slots[s].op;
      EXPECT_EQ(std::count_if(p.code.begin(), p.code.end(),
                              [op](const Instr& in) { return in.op == op; }) >
                    0,
                true);
    }
    seen[cp->src_pc[vpc]] = true;
  }
}

TEST(VmCompileTest, ConstPoolHoldsBroadcastValues) {
  KernelBuilder kb("consts");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  Val v = kb.ConstF(F32(4), 2.5);
  kb.Store(buf, gid, kb.VSum(v * kb.Splat(kb.Load(buf, gid), 4)));
  const Program p = *kb.Build();
  const auto cp = Compile(p);
  ASSERT_NE(cp, nullptr);

  const auto it = std::find_if(
      cp->code.begin(), cp->code.end(),
      [](const vm::VInstr& in) { return in.op == VOp::kConst; });
  ASSERT_NE(it, cp->code.end());
  ASSERT_LT(it->target, cp->const_pool.size());
  const RegValue& pooled = cp->const_pool[it->target];
  for (int lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(pooled.f32[lane], 2.5f) << "lane " << lane;
  }
}

TEST(VmCompileTest, CompactsRegisterFrame) {
  KernelBuilder kb("compact");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  Val acc = kb.Load(buf, gid);
  for (int i = 0; i < 10; ++i) acc = acc + kb.ConstF(F32(), 1.0);
  kb.Store(buf, gid, acc);
  const Program p = *kb.Build();
  const auto cp = Compile(p);
  ASSERT_NE(cp, nullptr);
  // Each register takes the bytes of its type (8-byte scalars aligned to
  // 8), never a full RegValue, and every operand names a register inside
  // the frame (offset 0 stays the unused-operand slot).
  std::uint32_t type_bytes = 8;
  for (const RegInfo& r : p.regs) type_bytes += (r.type.bytes() + 7) & ~7u;
  EXPECT_LE(cp->frame_bytes, type_bytes);
  std::set<vm::RegOff> regs;
  for (const vm::RegSpan& r : cp->frame_regs) {
    EXPECT_LE(r.reg * 4u + r.bytes, cp->frame_bytes);
    regs.insert(r.reg);
  }
  for (const vm::VInstr& in : cp->code) {
    for (const vm::RegOff r : {in.dst, in.a, in.b, in.c}) {
      if (r != 0) {
        EXPECT_TRUE(regs.count(r)) << "operand offset " << r;
      }
    }
  }
}

TEST(VmCompileTest, RejectsUnfinalizedProgramLikeInterp) {
  Program p;
  p.name = "raw";
  const auto compiled = vm::CompileProgram(p);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(compiled.status().message(), "program not finalized: raw");
}

TEST(VmCompileTest, ExecutorRejectsMismatchedBytecode) {
  KernelBuilder kb1("one");
  auto b1 = kb1.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  kb1.Store(b1, kb1.GlobalId(0), kb1.Load(b1, kb1.GlobalId(0)));
  const Program p1 = *kb1.Build();

  KernelBuilder kb2("two");
  auto b2 = kb2.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val x = kb2.Load(b2, kb2.GlobalId(0));
  kb2.Store(b2, kb2.GlobalId(0), x + x);
  const Program p2 = *kb2.Build();

  const auto cp1 = Compile(p1);
  ASSERT_NE(cp1, nullptr);
  std::vector<float> data(64, 1.0f);
  Bindings bind;
  bind.buffers = {{reinterpret_cast<std::byte*>(data.data()), 0x1000,
                   data.size() * 4}};
  LaunchConfig config;
  config.global_size = {32, 1, 1};
  config.local_size = {8, 1, 1};
  StatusOr<vm::VmExecutor> executor =
      vm::VmExecutor::Create(&p2, cp1, config, std::move(bind));
  ASSERT_FALSE(executor.ok());
  EXPECT_EQ(executor.status().code(), ErrorCode::kInternal);
}

TEST(VmCompileTest, StrengthReducesAddressArithmeticToShifts) {
  KernelBuilder kb("addr");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF64, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  kb.Store(buf, gid, kb.Load(buf, gid));
  const Program p = *kb.Build();
  const auto cp = Compile(p);
  ASSERT_NE(cp, nullptr);
  for (const vm::VInstr& in : cp->code) {
    if (in.op != VOp::kLoad && in.op != VOp::kStore) continue;
    // f64: 8-byte elements -> shift of 3, and the pre-multiplied access
    // width rides in the instruction.
    EXPECT_EQ(in.aux8, 3);
    EXPECT_EQ(in.access_bytes, 8u);
  }
}

}  // namespace
}  // namespace malisim::kir
