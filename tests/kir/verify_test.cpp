// Verifier tests: hand-constructed Programs with deliberate violations.
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "kir/builder.h"
#include "kir/program.h"

namespace malisim::kir {
namespace {

/// A program skeleton with one f32 buffer arg (slot 0) and helpers for
/// direct instruction construction.
class VerifyTest : public ::testing::Test {
 protected:
  VerifyTest() {
    program_.name = "test";
    program_.args.push_back({"buf", ArgKind::kBufferRW, ScalarType::kF32,
                             false, false});
  }

  RegId AddReg(Type type) {
    program_.regs.push_back({type, ""});
    return static_cast<RegId>(program_.regs.size() - 1);
  }

  Instr& Emit(Opcode op, Type type = F32()) {
    program_.code.emplace_back();
    program_.code.back().op = op;
    program_.code.back().type = type;
    return program_.code.back();
  }

  Status FinalizeAndVerify() {
    MALI_RETURN_IF_ERROR(program_.Finalize());
    return Verify(program_);
  }

  Program program_;
};

TEST_F(VerifyTest, EmptyProgramVerifies) {
  EXPECT_TRUE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, UnfinalizedProgramRejected) {
  EXPECT_EQ(Verify(program_).code(), ErrorCode::kFailedPrecondition);
}

TEST_F(VerifyTest, UseBeforeDefRejected) {
  const RegId a = AddReg(F32());
  const RegId b = AddReg(F32());
  Instr& in = Emit(Opcode::kAdd);
  in.dst = b;
  in.a = a;  // never defined
  in.b = a;
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, TypeMismatchRejected) {
  const RegId f = AddReg(F32());
  const RegId i = AddReg(I32());
  const RegId d = AddReg(F32());
  Emit(Opcode::kConstF).dst = f;
  Emit(Opcode::kConstI, I32()).dst = i;
  Instr& add = Emit(Opcode::kAdd);
  add.dst = d;
  add.a = f;
  add.b = i;  // mixing f32 and i32
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, FloatOnlyOpOnIntRejected) {
  const RegId i = AddReg(I32());
  const RegId d = AddReg(I32());
  Emit(Opcode::kConstI, I32()).dst = i;
  Instr& s = Emit(Opcode::kSqrt, I32());
  s.dst = d;
  s.a = i;
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, BitwiseOnFloatRejected) {
  const RegId f = AddReg(F32());
  const RegId d = AddReg(F32());
  Emit(Opcode::kConstF).dst = f;
  Instr& a = Emit(Opcode::kAnd);
  a.dst = d;
  a.a = f;
  a.b = f;
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, StoreToReadOnlyBufferRejected) {
  program_.args[0].kind = ArgKind::kBufferRO;
  const RegId v = AddReg(F32());
  const RegId idx = AddReg(I32());
  Emit(Opcode::kConstF).dst = v;
  Emit(Opcode::kConstI, I32()).dst = idx;
  Instr& st = Emit(Opcode::kStore);
  st.a = v;
  st.b = idx;
  st.slot = 0;
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, LoadFromWriteOnlyBufferRejected) {
  program_.args[0].kind = ArgKind::kBufferWO;
  const RegId idx = AddReg(I32());
  const RegId d = AddReg(F32());
  Emit(Opcode::kConstI, I32()).dst = idx;
  Instr& ld = Emit(Opcode::kLoad);
  ld.dst = d;
  ld.a = idx;
  ld.slot = 0;
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, LoadElementTypeMismatchRejected) {
  const RegId idx = AddReg(I32());
  const RegId d = AddReg(I64());  // buffer is f32
  Emit(Opcode::kConstI, I32()).dst = idx;
  Instr& ld = Emit(Opcode::kLoad, I64());
  ld.dst = d;
  ld.a = idx;
  ld.slot = 0;
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, SlotOutOfRangeRejected) {
  const RegId idx = AddReg(I32());
  const RegId d = AddReg(F32());
  Emit(Opcode::kConstI, I32()).dst = idx;
  Instr& ld = Emit(Opcode::kLoad);
  ld.dst = d;
  ld.a = idx;
  ld.slot = 3;
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, MismatchedControlFlowRejectedAtFinalize) {
  Emit(Opcode::kLoopEnd);
  EXPECT_FALSE(program_.Finalize().ok());
}

TEST_F(VerifyTest, UnterminatedLoopRejectedAtFinalize) {
  const RegId bound = AddReg(I32());
  const RegId var = AddReg(I32());
  Emit(Opcode::kConstI, I32()).dst = bound;
  Instr& loop = Emit(Opcode::kLoopBegin, I32());
  loop.dst = var;
  loop.a = bound;
  loop.b = bound;
  loop.imm = 1;
  EXPECT_FALSE(program_.Finalize().ok());
}

TEST_F(VerifyTest, ElseWithoutIfRejectedAtFinalize) {
  Emit(Opcode::kElse);
  EXPECT_FALSE(program_.Finalize().ok());
}

TEST_F(VerifyTest, NonPositiveLoopStepRejected) {
  const RegId bound = AddReg(I32());
  const RegId var = AddReg(I32());
  Emit(Opcode::kConstI, I32()).dst = bound;
  Instr& loop = Emit(Opcode::kLoopBegin, I32());
  loop.dst = var;
  loop.a = bound;
  loop.b = bound;
  loop.imm = 0;
  Emit(Opcode::kLoopEnd);
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, CompareResultMustBeI32Mask) {
  const RegId f = AddReg(F32(4));
  const RegId bad = AddReg(F32(4));  // should be I32 x4
  Emit(Opcode::kConstF, F32(4)).dst = f;
  Instr& cmp = Emit(Opcode::kCmpLt, F32(4));
  cmp.dst = bad;
  cmp.a = f;
  cmp.b = f;
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, AtomicOnFloatBufferRejected) {
  const RegId v = AddReg(I32());
  const RegId idx = AddReg(I32());
  Emit(Opcode::kConstI, I32()).dst = v;
  Emit(Opcode::kConstI, I32()).dst = idx;
  Instr& at = Emit(Opcode::kAtomicAddI32, I32());
  at.a = v;
  at.b = idx;
  at.slot = 0;  // f32 buffer
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, SlideAmountOutOfRangeRejected) {
  const RegId v = AddReg(F32(4));
  const RegId d = AddReg(F32(4));
  Emit(Opcode::kConstF, F32(4)).dst = v;
  Instr& s = Emit(Opcode::kSlide, F32(4));
  s.dst = d;
  s.a = v;
  s.b = v;
  s.imm = 5;  // > lanes
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

TEST_F(VerifyTest, ExtractLaneOutOfRangeRejected) {
  const RegId v = AddReg(F32(4));
  const RegId d = AddReg(F32());
  Emit(Opcode::kConstF, F32(4)).dst = v;
  Instr& e = Emit(Opcode::kExtract, F32());
  e.dst = d;
  e.a = v;
  e.imm = 4;
  EXPECT_FALSE(FinalizeAndVerify().ok());
}

// ParallelFor contract (VerifyParallelLoop): independent iterations, no
// barrier, nothing read after the loop that the loop writes.

/// The message of the first violation, or "" when the program verifies.
std::string ParallelForError(
    const std::function<void(KernelBuilder&, BufferRef, Val)>& build) {
  KernelBuilder kb("pfor");
  auto buf = kb.ArgBuffer("buf", ScalarType::kF32, ArgKind::kBufferRW);
  Val n = kb.ArgScalar("n", ScalarType::kI32);
  build(kb, buf, n);
  StatusOr<Program> p = kb.Build();
  return p.ok() ? "" : p.status().message();
}

TEST(VerifyParallelForTest, IndependentIterationsVerify) {
  EXPECT_EQ(ParallelForError([](KernelBuilder& kb, BufferRef buf, Val n) {
              kb.ParallelFor("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
                Val t = kb.Load(buf, i) * kb.ConstF(F32(), 2.0);
                kb.If(kb.CmpLt(t, kb.ConstF(F32(), 1.0)),
                      [&] { kb.Store(buf, i, t); });
              });
            }),
            "");
}

TEST(VerifyParallelForTest, LoopCarriedRegisterRejected) {
  const std::string error =
      ParallelForError([](KernelBuilder& kb, BufferRef buf, Val n) {
        Val acc = kb.Var(F32(), "acc");
        kb.Assign(acc, kb.ConstF(F32(), 0.0));
        kb.ParallelFor("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
          kb.Assign(acc, acc + kb.Load(buf, i));
        });
      });
  EXPECT_NE(error.find("reads %acc before this iteration writes it"),
            std::string::npos)
      << error;
}

TEST(VerifyParallelForTest, WriteOnOnePathOnlyIsLoopCarried) {
  // Assigned in the then-part only, then read unconditionally: the read
  // may see an earlier iteration's value.
  const std::string error =
      ParallelForError([](KernelBuilder& kb, BufferRef buf, Val n) {
        kb.ParallelFor("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
          Val t = kb.Var(F32(), "t");
          kb.If(kb.CmpLt(i, kb.ConstI(I32(), 4)),
                [&] { kb.Assign(t, kb.Load(buf, i)); });
          kb.Store(buf, i, t);
        });
      });
  EXPECT_NE(error.find("before this iteration writes it"), std::string::npos)
      << error;
}

TEST(VerifyParallelForTest, RegisterReadAfterLoopRejected) {
  const std::string error =
      ParallelForError([](KernelBuilder& kb, BufferRef buf, Val n) {
        Val last = kb.Var(F32(), "last");
        kb.Assign(last, kb.ConstF(F32(), 0.0));
        kb.ParallelFor("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
          kb.Assign(last, kb.Load(buf, i));
        });
        kb.Store(buf, kb.ConstI(I32(), 0), last);
      });
  EXPECT_NE(error.find("writes %last, which is read after the loop"),
            std::string::npos)
      << error;
}

TEST(VerifyParallelForTest, ReadOnNextTripOfEnclosingLoopRejected) {
  // Read before the ParallelFor, inside an enclosing loop: the next outer
  // trip sees what the parallel loop wrote.
  const std::string error =
      ParallelForError([](KernelBuilder& kb, BufferRef buf, Val n) {
        Val t = kb.Var(F32(), "t");
        kb.Assign(t, kb.ConstF(F32(), 0.0));
        kb.For("o", kb.ConstI(I32(), 0), n, 1, [&](Val o) {
          kb.Store(buf, o, t);
          kb.ParallelFor("i", kb.ConstI(I32(), 0), n, 1,
                         [&](Val i) { kb.Assign(t, kb.Load(buf, i)); });
        });
      });
  EXPECT_NE(error.find("which is read after the loop"), std::string::npos)
      << error;
}

TEST(VerifyParallelForTest, BarrierInBodyRejected) {
  const std::string error =
      ParallelForError([](KernelBuilder& kb, BufferRef buf, Val n) {
        kb.ParallelFor("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
          kb.Store(buf, i, kb.ConstF(F32(), 1.0));
          kb.Barrier();
        });
      });
  EXPECT_NE(error.find("holds a barrier"), std::string::npos) << error;
}

TEST(VerifyParallelForTest, WritingLoopVariableRejected) {
  const std::string error =
      ParallelForError([](KernelBuilder& kb, BufferRef buf, Val n) {
        kb.ParallelFor("i", kb.ConstI(I32(), 0), n, 1, [&](Val i) {
          kb.Store(buf, i, kb.ConstF(F32(), 1.0));
          kb.Assign(i, i + kb.ConstI(I32(), 1));
        });
      });
  EXPECT_NE(error.find("writes its loop variable or bound"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace malisim::kir
