#include "kir/passes.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "kir/builder.h"
#include "kir/interp.h"

namespace malisim::kir {
namespace {

TEST(ConstantFoldTest, FoldsConstantArithmetic) {
  KernelBuilder kb("fold");
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val a = kb.ConstF(F32(), 2.0);
  Val b = kb.ConstF(F32(), 3.0);
  kb.Store(out, kb.ConstI(I32(), 0), (a + b) * b);
  Program p = *kb.Build();

  StatusOr<int> folded = ConstantFold(&p);
  ASSERT_TRUE(folded.ok());
  EXPECT_GE(*folded, 2);  // (a+b) and (..)*b both folded

  // Semantics preserved.
  float result = 0;
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(&result), 0x1000, 4}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());
  EXPECT_FLOAT_EQ(result, 15.0f);
}

TEST(ConstantFoldTest, DoesNotFoldRuntimeValues) {
  KernelBuilder kb("nofold");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  Val two = kb.ConstI(I32(), 2);
  kb.Store(out, gid, gid * two);
  Program p = *kb.Build();
  StatusOr<int> folded = ConstantFold(&p);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(*folded, 0);
}

TEST(ConstantFoldTest, IntegerFoldIncludesRemainder) {
  KernelBuilder kb("irem");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val a = kb.ConstI(I32(), 17);
  Val b = kb.ConstI(I32(), 5);
  kb.Store(out, kb.ConstI(I32(), 0), kb.Binary(Opcode::kIRem, a, b));
  Program p = *kb.Build();
  ASSERT_TRUE(ConstantFold(&p).ok());
  std::int32_t result = 0;
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(&result), 0x1000, 4}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());
  EXPECT_EQ(result, 2);
}

TEST(ConstantFoldTest, LeavesDivisionByZeroToRuntime) {
  KernelBuilder kb("divz");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val a = kb.ConstI(I32(), 1);
  Val b = kb.ConstI(I32(), 0);
  kb.Store(out, kb.ConstI(I32(), 0), kb.Binary(Opcode::kIDiv, a, b));
  Program p = *kb.Build();
  const std::size_t before = p.code.size();
  ASSERT_TRUE(ConstantFold(&p).ok());
  EXPECT_EQ(p.code.size(), before);  // not folded away
}

TEST(ConstantFoldTest, LeavesOverflowingDivisionToRuntime) {
  // MIN / -1 would trap in the folder itself; like a zero divisor, it is
  // left for the runtime to fault on.
  for (const Type t : {I32(), I64()}) {
    KernelBuilder kb("divo");
    auto out = kb.ArgBuffer("out", t.scalar, ArgKind::kBufferWO);
    Val a = kb.ConstI(t, t == I32() ? INT32_MIN : INT64_MIN);
    Val b = kb.ConstI(t, -1);
    kb.Store(out, kb.ConstI(I32(), 0), kb.Binary(Opcode::kIDiv, a, b));
    kb.Store(out, kb.ConstI(I32(), 1), kb.Binary(Opcode::kIRem, a, b));
    Program p = *kb.Build();
    StatusOr<int> folded = ConstantFold(&p);
    ASSERT_TRUE(folded.ok());
    EXPECT_EQ(*folded, 0);
  }
}

TEST(DeadCodeElimTest, RemovesUnusedArithmetic) {
  KernelBuilder kb("dce");
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val used = kb.ConstF(F32(), 1.0);
  Val dead = kb.ConstF(F32(), 2.0);
  Val dead2 = dead * dead;  // unused chain
  (void)dead2;
  kb.Store(out, kb.ConstI(I32(), 0), used);
  Program p = *kb.Build();
  const std::size_t before = p.code.size();
  StatusOr<int> removed = DeadCodeElim(&p);
  ASSERT_TRUE(removed.ok());
  EXPECT_GE(*removed, 2);  // the mul and at least one dead const
  EXPECT_LT(p.code.size(), before);

  float result = 0;
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(&result), 0x1000, 4}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());
  EXPECT_FLOAT_EQ(result, 1.0f);
}

TEST(DeadCodeElimTest, KeepsStoresAndAtomics) {
  KernelBuilder kb("keep");
  auto out = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferRW);
  kb.Store(out, kb.ConstI(I32(), 0), kb.ConstI(I32(), 1));
  kb.AtomicAdd(out, kb.ConstI(I32(), 1), kb.ConstI(I32(), 2));
  Program p = *kb.Build();
  ASSERT_TRUE(DeadCodeElim(&p).ok());
  int stores = 0, atomics = 0;
  for (const Instr& in : p.code) {
    if (in.op == Opcode::kStore) ++stores;
    if (in.op == Opcode::kAtomicAddI32) ++atomics;
  }
  EXPECT_EQ(stores, 1);
  EXPECT_EQ(atomics, 1);
}

TEST(DeadCodeElimTest, KeepsLoads) {
  // Loads may fault and touch the memory system: never removed.
  KernelBuilder kb("loads");
  auto in = kb.ArgBuffer("in", ScalarType::kF32, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val zero = kb.ConstI(I32(), 0);
  Val unused = kb.Load(in, zero);
  (void)unused;
  kb.Store(out, zero, kb.ConstF(F32(), 1.0));
  Program p = *kb.Build();
  ASSERT_TRUE(DeadCodeElim(&p).ok());
  int loads = 0;
  for (const Instr& in2 : p.code) {
    if (in2.op == Opcode::kLoad) ++loads;
  }
  EXPECT_EQ(loads, 1);
}

TEST(FeaturesTest, DetectsAtomicsBarriersAndDepth) {
  KernelBuilder kb("feat");
  auto buf = kb.ArgBuffer("buf", ScalarType::kI32, ArgKind::kBufferRW);
  kb.Barrier();
  Val n = kb.ConstI(I32(), 4);
  kb.For("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
    kb.For("j", kb.ConstI(I32(), 0), n, 1, [&](Val) {
      kb.AtomicAdd(buf, i, kb.ConstI(I32(), 1));
    });
  });
  Program p = *kb.Build();
  const ProgramFeatures f = AnalyzeFeatures(p);
  EXPECT_TRUE(f.has_atomics);
  EXPECT_TRUE(f.has_barrier);
  EXPECT_EQ(f.max_loop_depth, 2u);
  EXPECT_FALSE(f.has_f64);
}

TEST(FeaturesTest, ErratumShapeDetected) {
  // f64 special function inside a loop that also contains an if: the amcd
  // Metropolis shape that kills the 2013 compiler.
  KernelBuilder kb("erratum");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF64, ArgKind::kBufferRW);
  Val n = kb.ConstI(I32(), 4);
  kb.For("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
    Val x = kb.Load(buf, i);
    Val e = kb.Exp(x);
    Val cond = kb.CmpLt(i, kb.ConstI(I32(), 2));
    kb.If(cond, [&] { kb.Store(buf, i, e); });
  });
  Program p = *kb.Build();
  const ProgramFeatures f = AnalyzeFeatures(p);
  EXPECT_TRUE(f.has_f64);
  EXPECT_TRUE(f.has_f64_special);
  EXPECT_TRUE(f.has_f64_special_in_divergent_loop);
}

TEST(FeaturesTest, F64SpecialWithoutBranchIsNotErratum) {
  KernelBuilder kb("fine");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF64, ArgKind::kBufferRW);
  Val n = kb.ConstI(I32(), 4);
  kb.For("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
    kb.Store(buf, i, kb.Sqrt(kb.Load(buf, i)));
  });
  Program p = *kb.Build();
  EXPECT_FALSE(AnalyzeFeatures(p).has_f64_special_in_divergent_loop);
}

TEST(FeaturesTest, F32SpecialInBranchyLoopIsNotErratum) {
  KernelBuilder kb("sp_ok");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val n = kb.ConstI(I32(), 4);
  kb.For("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
    Val e = kb.Exp(kb.Load(buf, i));
    kb.If(kb.CmpLt(i, kb.ConstI(I32(), 2)), [&] { kb.Store(buf, i, e); });
  });
  Program p = *kb.Build();
  EXPECT_FALSE(AnalyzeFeatures(p).has_f64_special_in_divergent_loop);
}

TEST(FeaturesTest, InnerLoopErratumPropagatesToOuter) {
  KernelBuilder kb("nested_erratum");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF64, ArgKind::kBufferRW);
  Val n = kb.ConstI(I32(), 4);
  kb.For("t", kb.ConstI(I32(), 0), n, 1, [&](Val) {
    kb.For("j", kb.ConstI(I32(), 0), n, 1, [&](Val j) {
      kb.If(kb.CmpNe(j, kb.ConstI(I32(), 0)),
            [&] { kb.Store(buf, j, kb.Rsqrt(kb.Load(buf, j))); });
    });
  });
  Program p = *kb.Build();
  EXPECT_TRUE(AnalyzeFeatures(p).has_f64_special_in_divergent_loop);
}

TEST(LivenessTest, SequentialChainsHaveLowPressure) {
  // r1 = c; r2 = r1+r1; r3 = r2+r2; ... each value dies immediately.
  KernelBuilder kb("chain");
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val v = kb.ConstF(F32(), 1.0);
  for (int i = 0; i < 20; ++i) v = v + v;
  kb.Store(out, kb.ConstI(I32(), 0), v);
  Program p = *kb.Build();
  // ~2 scalar f32 values live at a time, plus the index.
  EXPECT_LE(MaxLiveRegisterBytes(p), 4u * 8);
  EXPECT_LT(MaxLiveRegisterBytes(p), p.register_bytes());
}

TEST(LivenessTest, WideAccumulatorsStackUp) {
  KernelBuilder kb("wide");
  auto out = kb.ArgBuffer("out", ScalarType::kF64, ArgKind::kBufferWO);
  std::vector<Val> accs;
  for (int i = 0; i < 8; ++i) {
    accs.push_back(kb.ConstF(F64(4), static_cast<double>(i)));
  }
  Val sum = accs[0];
  for (int i = 1; i < 8; ++i) sum = sum + accs[i];
  kb.Store(out, kb.ConstI(I32(), 0), sum);
  Program p = *kb.Build();
  // All 8 f64x4 constants (32 B each) are live until the summation tree
  // consumes them.
  EXPECT_GE(MaxLiveRegisterBytes(p), 8u * 32);
}

TEST(LivenessTest, LoopCarriedValuesLiveAcrossLoop) {
  KernelBuilder kb("carried");
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val big = kb.ConstF(F32(16), 1.0);  // 64 B, used inside the loop
  Val acc = kb.Var(F32(16), "acc");
  kb.Assign(acc, kb.ConstF(F32(16), 0.0));
  kb.For("i", kb.ConstI(I32(), 0), kb.ConstI(I32(), 10), 1,
         [&](Val) { kb.Assign(acc, acc + big); });
  kb.Store(out, kb.ConstI(I32(), 0), kb.VSum(acc));
  Program p = *kb.Build();
  EXPECT_GE(MaxLiveRegisterBytes(p), 2u * 64);
}

}  // namespace
}  // namespace malisim::kir
