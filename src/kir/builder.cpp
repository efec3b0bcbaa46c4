#include "kir/builder.h"

#include <utility>

namespace malisim::kir {

KernelBuilder::KernelBuilder(std::string name) {
  program_.name = std::move(name);
}

BufferRef KernelBuilder::ArgBuffer(const std::string& name, ScalarType elem,
                                   ArgKind kind, bool is_restrict,
                                   bool is_const) {
  MALI_CHECK_MSG(!built_, "builder already consumed");
  MALI_CHECK_MSG(kind != ArgKind::kScalar, "use ArgScalar for scalars");
  const std::uint8_t slot =
      static_cast<std::uint8_t>(program_.num_buffer_args());
  MALI_CHECK_MSG(program_.locals.empty(),
                 "declare all buffer args before local arrays");
  program_.args.push_back({name, kind, elem, is_restrict, is_const});
  return BufferRef{this, slot, elem};
}

Val KernelBuilder::ArgScalar(const std::string& name, ScalarType type) {
  MALI_CHECK_MSG(!built_, "builder already consumed");
  program_.args.push_back({name, ArgKind::kScalar, type, false, false});
  const RegId reg = NewReg(Type(type, 1), name);
  Instr& in = Emit(Opcode::kArg);
  in.dst = reg;
  in.type = Type(type, 1);
  in.imm = num_scalar_args_++;
  return Val(this, reg, Type(type, 1));
}

BufferRef KernelBuilder::LocalArray(const std::string& name, ScalarType elem,
                                    std::uint32_t elems) {
  MALI_CHECK_MSG(!built_, "builder already consumed");
  const std::uint8_t slot = static_cast<std::uint8_t>(
      program_.num_buffer_args() + program_.locals.size());
  program_.locals.push_back({name, elem, elems});
  return BufferRef{this, slot, elem};
}

Val KernelBuilder::ConstI(Type type, std::int64_t value) {
  const RegId reg = NewReg(type);
  Instr& in = Emit(Opcode::kConstI);
  in.dst = reg;
  in.type = type;
  in.imm = value;
  return Val(this, reg, type);
}

Val KernelBuilder::ConstF(Type type, double value) {
  MALI_CHECK_MSG(IsFloat(type.scalar), "ConstF needs a float type");
  const RegId reg = NewReg(type);
  Instr& in = Emit(Opcode::kConstF);
  in.dst = reg;
  in.type = type;
  in.fimm = value;
  return Val(this, reg, type);
}

Val KernelBuilder::Builtin(Opcode op, int dim) {
  MALI_CHECK(dim >= 0 && dim < 3);
  const RegId reg = NewReg(I32());
  Instr& in = Emit(op);
  in.dst = reg;
  in.type = I32();
  in.imm = dim;
  return Val(this, reg, I32());
}

Val KernelBuilder::GlobalId(int dim) { return Builtin(Opcode::kGlobalId, dim); }
Val KernelBuilder::LocalId(int dim) { return Builtin(Opcode::kLocalId, dim); }
Val KernelBuilder::GroupId(int dim) { return Builtin(Opcode::kGroupId, dim); }
Val KernelBuilder::GlobalSize(int dim) { return Builtin(Opcode::kGlobalSize, dim); }
Val KernelBuilder::LocalSize(int dim) { return Builtin(Opcode::kLocalSize, dim); }
Val KernelBuilder::NumGroups(int dim) { return Builtin(Opcode::kNumGroups, dim); }

Val KernelBuilder::Var(Type type, const std::string& name) {
  const RegId reg = NewReg(type, name);
  return Val(this, reg, type);
}

void KernelBuilder::Assign(Val var, Val value) {
  CheckOwned(var);
  CheckOwned(value);
  MALI_CHECK_MSG(var.type() == value.type(), "Assign type mismatch");
  Instr& in = Emit(Opcode::kMov);
  in.dst = var.reg();
  in.type = var.type();
  in.a = value.reg();
}

Val KernelBuilder::Binary(Opcode op, Val a, Val b) {
  CheckOwned(a);
  CheckOwned(b);
  MALI_CHECK_MSG(a.type() == b.type(), "binary op type mismatch");
  const RegId reg = NewReg(a.type());
  Instr& in = Emit(op);
  in.dst = reg;
  in.type = a.type();
  in.a = a.reg();
  in.b = b.reg();
  return Val(this, reg, a.type());
}

Val KernelBuilder::Unary(Opcode op, Val a) {
  CheckOwned(a);
  const RegId reg = NewReg(a.type());
  Instr& in = Emit(op);
  in.dst = reg;
  in.type = a.type();
  in.a = a.reg();
  return Val(this, reg, a.type());
}

Val KernelBuilder::Fma(Val a, Val b, Val c) {
  CheckOwned(a);
  MALI_CHECK_MSG(a.type() == b.type() && a.type() == c.type(),
                 "fma type mismatch");
  const RegId reg = NewReg(a.type());
  Instr& in = Emit(Opcode::kFma);
  in.dst = reg;
  in.type = a.type();
  in.a = a.reg();
  in.b = b.reg();
  in.c = c.reg();
  return Val(this, reg, a.type());
}

Val KernelBuilder::Shl(Val a, int amount) {
  CheckOwned(a);
  const RegId reg = NewReg(a.type());
  Instr& in = Emit(Opcode::kShl);
  in.dst = reg;
  in.type = a.type();
  in.a = a.reg();
  in.imm = amount;
  return Val(this, reg, a.type());
}

Val KernelBuilder::Shr(Val a, int amount) {
  CheckOwned(a);
  const RegId reg = NewReg(a.type());
  Instr& in = Emit(Opcode::kShr);
  in.dst = reg;
  in.type = a.type();
  in.a = a.reg();
  in.imm = amount;
  return Val(this, reg, a.type());
}

Val KernelBuilder::Splat(Val scalar, std::uint8_t lanes) {
  CheckOwned(scalar);
  MALI_CHECK(IsValidLanes(lanes));
  const Type type(scalar.type().scalar, lanes);
  const RegId reg = NewReg(type);
  Instr& in = Emit(Opcode::kSplat);
  in.dst = reg;
  in.type = type;
  in.a = scalar.reg();
  return Val(this, reg, type);
}

Val KernelBuilder::Extract(Val vec, int lane) {
  CheckOwned(vec);
  const Type type(vec.type().scalar, 1);
  const RegId reg = NewReg(type);
  Instr& in = Emit(Opcode::kExtract);
  in.dst = reg;
  in.type = type;
  in.a = vec.reg();
  in.imm = lane;
  return Val(this, reg, type);
}

Val KernelBuilder::Insert(Val vec, int lane, Val scalar) {
  CheckOwned(vec);
  CheckOwned(scalar);
  const RegId reg = NewReg(vec.type());
  Instr& in = Emit(Opcode::kInsert);
  in.dst = reg;
  in.type = vec.type();
  in.a = vec.reg();
  in.b = scalar.reg();
  in.imm = lane;
  return Val(this, reg, vec.type());
}

Val KernelBuilder::VSum(Val vec) {
  CheckOwned(vec);
  const Type type(vec.type().scalar, 1);
  const RegId reg = NewReg(type);
  Instr& in = Emit(Opcode::kVSum);
  in.dst = reg;
  in.type = type;
  in.a = vec.reg();
  return Val(this, reg, type);
}

Val KernelBuilder::Slide(Val a, Val b, int amount) {
  CheckOwned(a);
  CheckOwned(b);
  MALI_CHECK_MSG(a.type() == b.type(), "slide type mismatch");
  const RegId reg = NewReg(a.type());
  Instr& in = Emit(Opcode::kSlide);
  in.dst = reg;
  in.type = a.type();
  in.a = a.reg();
  in.b = b.reg();
  in.imm = amount;
  return Val(this, reg, a.type());
}

Val KernelBuilder::Convert(Val v, ScalarType to) {
  CheckOwned(v);
  const Type type(to, v.type().lanes);
  const RegId reg = NewReg(type);
  Instr& in = Emit(Opcode::kConvert);
  in.dst = reg;
  in.type = type;
  in.a = v.reg();
  return Val(this, reg, type);
}

Val KernelBuilder::Compare(Opcode op, Val a, Val b) {
  CheckOwned(a);
  CheckOwned(b);
  MALI_CHECK_MSG(a.type() == b.type(), "compare type mismatch");
  const Type type = I32(a.type().lanes);
  const RegId reg = NewReg(type);
  Instr& in = Emit(op);
  in.dst = reg;
  in.type = type;
  in.a = a.reg();
  in.b = b.reg();
  return Val(this, reg, type);
}

Val KernelBuilder::Select(Val cond, Val if_true, Val if_false) {
  CheckOwned(cond);
  MALI_CHECK_MSG(if_true.type() == if_false.type(), "select type mismatch");
  const RegId reg = NewReg(if_true.type());
  Instr& in = Emit(Opcode::kSelect);
  in.dst = reg;
  in.type = if_true.type();
  in.a = cond.reg();
  in.b = if_true.reg();
  in.c = if_false.reg();
  return Val(this, reg, if_true.type());
}

Val KernelBuilder::Load(BufferRef buf, Val index, std::int64_t offset,
                        std::uint8_t lanes) {
  MALI_CHECK_MSG(buf.kb == this, "buffer from another builder");
  CheckOwned(index);
  const Type type(buf.elem, lanes);
  const RegId reg = NewReg(type);
  Instr& in = Emit(Opcode::kLoad);
  in.dst = reg;
  in.type = type;
  in.a = index.reg();
  in.slot = buf.slot;
  in.imm = offset;
  return Val(this, reg, type);
}

void KernelBuilder::Store(BufferRef buf, Val index, Val value,
                          std::int64_t offset) {
  MALI_CHECK_MSG(buf.kb == this, "buffer from another builder");
  CheckOwned(index);
  CheckOwned(value);
  Instr& in = Emit(Opcode::kStore);
  in.type = value.type();
  in.a = value.reg();
  in.b = index.reg();
  in.slot = buf.slot;
  in.imm = offset;
}

void KernelBuilder::AtomicAdd(BufferRef buf, Val index, Val value,
                              std::int64_t offset) {
  MALI_CHECK_MSG(buf.kb == this, "buffer from another builder");
  CheckOwned(index);
  CheckOwned(value);
  Instr& in = Emit(Opcode::kAtomicAddI32);
  in.type = I32();
  in.a = value.reg();
  in.b = index.reg();
  in.slot = buf.slot;
  in.imm = offset;
}

void KernelBuilder::Barrier() { Emit(Opcode::kBarrier); }

void KernelBuilder::Loop(const std::string& var_name, Val start, Val end,
                         std::int64_t step, bool parallel,
                         const std::function<void(Val)>& body) {
  CheckOwned(start);
  CheckOwned(end);
  const RegId var = NewReg(I32(), var_name);
  Instr& in = Emit(Opcode::kLoopBegin);
  in.dst = var;
  in.type = I32();
  in.a = start.reg();
  in.b = end.reg();
  in.imm = step;
  in.parallel = parallel;
  body(Val(this, var, I32()));
  Emit(Opcode::kLoopEnd);
}

void KernelBuilder::For(const std::string& var_name, Val start, Val end,
                        std::int64_t step,
                        const std::function<void(Val)>& body) {
  Loop(var_name, start, end, step, /*parallel=*/false, body);
}

void KernelBuilder::ParallelFor(const std::string& var_name, Val start,
                                Val end, std::int64_t step,
                                const std::function<void(Val)>& body) {
  Loop(var_name, start, end, step, /*parallel=*/true, body);
}

void KernelBuilder::For(const std::string& var_name, std::int64_t start,
                        Val end, std::int64_t step,
                        const std::function<void(Val)>& body) {
  For(var_name, ConstI(I32(), start), end, step, body);
}

void KernelBuilder::ForUnrolled(const std::string& var_name, Val start,
                                Val end, std::int64_t step, int factor,
                                const std::function<void(Val)>& body) {
  MALI_CHECK_MSG(factor >= 1, "unroll factor must be >= 1");
  MALI_CHECK_MSG(step == 1, "ForUnrolled supports unit step only");
  if (factor == 1) {
    For(var_name, start, end, step, body);
    return;
  }
  // The standard hand-unrolled OpenCL pattern:
  //   main_end = end - (end - start) % factor;
  //   for (i = start; i < main_end; i += factor) { body(i) ... body(i+f-1); }
  //   for (i = main_end; i < end; ++i) body(i);          // remainder
  // (§III-B: "the overhead due to the correct handling of the last
  // iterations of the loop has to be considered").
  Val span = Binary(Opcode::kSub, end, start);
  Val rem = Binary(Opcode::kIRem, span, ConstI(I32(), factor));
  Val main_end = Binary(Opcode::kSub, end, rem);

  const RegId var = NewReg(I32(), var_name);
  Instr& in = Emit(Opcode::kLoopBegin);
  in.dst = var;
  in.type = I32();
  in.a = start.reg();
  in.b = main_end.reg();
  in.imm = factor;
  const Val iv(this, var, I32());
  for (int k = 0; k < factor; ++k) {
    Val idx = k == 0 ? iv : Binary(Opcode::kAdd, iv, ConstI(I32(), k));
    body(idx);
  }
  Emit(Opcode::kLoopEnd);

  For(var_name + "_rem", main_end, end, 1, body);
}

void KernelBuilder::If(Val cond, const std::function<void()>& then_body,
                       const std::function<void()>& else_body) {
  CheckOwned(cond);
  Instr& in = Emit(Opcode::kIfBegin);
  in.type = I32();
  in.a = cond.reg();
  then_body();
  if (else_body) {
    Emit(Opcode::kElse);
    else_body();
  }
  Emit(Opcode::kIfEnd);
}

StatusOr<Program> KernelBuilder::Build() {
  MALI_CHECK_MSG(!built_, "builder already consumed");
  built_ = true;
  MALI_RETURN_IF_ERROR(program_.Finalize());
  MALI_RETURN_IF_ERROR(Verify(program_));
  return std::move(program_);
}

RegId KernelBuilder::NewReg(Type type, const std::string& name) {
  MALI_CHECK_MSG(program_.regs.size() < 0xFFFF, "register file exhausted");
  program_.regs.push_back({type, name});
  return static_cast<RegId>(program_.regs.size() - 1);
}

Instr& KernelBuilder::Emit(Opcode op) {
  MALI_CHECK_MSG(!built_, "builder already consumed");
  program_.code.emplace_back();
  program_.code.back().op = op;
  return program_.code.back();
}

void KernelBuilder::CheckOwned(Val v) const {
  MALI_CHECK_MSG(v.valid() && v.builder() == this,
                 "value from another builder");
}

// --- operator sugar ---

namespace {

Val MaterializeConst(Val like, double c) {
  KernelBuilder* kb = like.builder();
  const Type t = like.type();
  if (IsFloat(t.scalar)) return kb->ConstF(t, c);
  return kb->ConstI(t, static_cast<std::int64_t>(c));
}

}  // namespace

Val operator+(Val a, Val b) { return a.builder()->Binary(Opcode::kAdd, a, b); }
Val operator-(Val a, Val b) { return a.builder()->Binary(Opcode::kSub, a, b); }
Val operator*(Val a, Val b) { return a.builder()->Binary(Opcode::kMul, a, b); }
Val operator/(Val a, Val b) { return a.builder()->Binary(Opcode::kDiv, a, b); }
Val operator+(Val a, double c) { return a + MaterializeConst(a, c); }
Val operator-(Val a, double c) { return a - MaterializeConst(a, c); }
Val operator*(Val a, double c) { return a * MaterializeConst(a, c); }
Val operator/(Val a, double c) { return a / MaterializeConst(a, c); }
Val operator+(double c, Val b) { return MaterializeConst(b, c) + b; }
Val operator*(double c, Val b) { return MaterializeConst(b, c) * b; }
Val operator-(double c, Val b) { return MaterializeConst(b, c) - b; }
Val operator-(Val a) { return a.builder()->Unary(Opcode::kNeg, a); }
Val operator&(Val a, Val b) { return a.builder()->Binary(Opcode::kAnd, a, b); }
Val operator|(Val a, Val b) { return a.builder()->Binary(Opcode::kOr, a, b); }
Val operator^(Val a, Val b) { return a.builder()->Binary(Opcode::kXor, a, b); }

}  // namespace malisim::kir
