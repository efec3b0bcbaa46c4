// Structural / type verifier for KIR programs. Run by KernelBuilder::Build
// and by the device-side kernel compilers before execution.
#include <string>
#include <vector>

#include "kir/program.h"

namespace malisim::kir {
namespace {

struct SlotInfo {
  ScalarType elem;
  ArgKind kind;  // locals behave as kBufferRW
};

std::vector<SlotInfo> CollectSlots(const Program& p) {
  std::vector<SlotInfo> slots;
  for (const ArgDecl& arg : p.args) {
    if (arg.kind != ArgKind::kScalar) slots.push_back({arg.elem, arg.kind});
  }
  for (const LocalArrayDecl& local : p.locals) {
    slots.push_back({local.elem, ArgKind::kBufferRW});
  }
  return slots;
}

Status Fail(std::uint32_t index, const Instr& instr, const std::string& what) {
  return InvalidArgumentError("instruction " + std::to_string(index) + " (" +
                              std::string(OpcodeName(instr.op)) + "): " + what);
}

/// Calls fn(reg) for every register instruction `i` reads, including the
/// loop variable and bound a kLoopEnd reads through its kLoopBegin.
template <typename Fn>
void ForEachRead(const Program& p, std::uint32_t i, Fn&& fn) {
  const Instr& in = p.code[i];
  for (RegId r : {in.a, in.b, in.c}) {
    if (r != kNoReg) fn(r);
  }
  if (in.op == Opcode::kLoopEnd) {
    const Instr& begin = p.code[in.match];
    fn(begin.dst);
    fn(begin.b);
  }
}

std::string RegLabel(const Program& p, RegId r) {
  return p.regs[r].name.empty() ? "r" + std::to_string(r)
                                : "%" + p.regs[r].name;
}

}  // namespace

Status VerifyParallelLoop(const Program& p, std::uint32_t loop_begin) {
  const Instr& loop = p.code[loop_begin];
  const std::uint32_t loop_end = loop.match;
  const std::size_t num_regs = p.regs.size();
  auto fail = [&](std::uint32_t i, const std::string& what) {
    return Fail(i, p.code[i], "parallel loop at " +
                                  std::to_string(loop_begin) + " " + what);
  };

  // Registers the loop writes: every body destination, plus the variable.
  std::vector<char> written(num_regs, 0);
  written[loop.dst] = 1;
  for (std::uint32_t i = loop_begin + 1; i < loop_end; ++i) {
    const Instr& in = p.code[i];
    if (in.op == Opcode::kBarrier) return fail(i, "holds a barrier");
    if (in.dst == kNoReg) continue;
    if (in.dst == loop.dst || in.dst == loop.b) {
      return fail(i, "writes its loop variable or bound");
    }
    written[in.dst] = 1;
  }

  // Definite assignment through the body: a written register may only be
  // read once this iteration has written it on every path to the read.
  // The loop variable is the one value each iteration gets from outside.
  std::vector<char> assigned(num_regs, 0);
  assigned[loop.dst] = 1;
  struct Open {
    Opcode op;
    std::vector<char> on_entry;  // state at the construct's entry
    std::vector<char> then_out;  // if-else: state at the end of `then`
  };
  std::vector<Open> open;
  for (std::uint32_t i = loop_begin + 1; i < loop_end; ++i) {
    const Instr& in = p.code[i];
    Status st = Status::Ok();
    ForEachRead(p, i, [&](RegId r) {
      if (st.ok() && written[r] && !assigned[r]) {
        st = fail(i, "reads " + RegLabel(p, r) +
                         " before this iteration writes it, so it sees an "
                         "earlier iteration's value");
      }
    });
    MALI_RETURN_IF_ERROR(st);
    switch (in.op) {
      case Opcode::kLoopBegin:
        assigned[in.dst] = 1;  // written even when the loop runs no trip
        open.push_back({in.op, assigned, {}});
        break;
      case Opcode::kIfBegin:
        open.push_back({in.op, assigned, {}});
        break;
      case Opcode::kElse:
        open.back().then_out = assigned;
        assigned = open.back().on_entry;
        break;
      case Opcode::kLoopEnd:
        assigned = open.back().on_entry;  // the body may run no trip
        open.pop_back();
        break;
      case Opcode::kIfEnd: {
        const Open& ifo = open.back();
        if (ifo.then_out.empty()) {
          assigned = ifo.on_entry;  // the then-body may not run
        } else {
          for (std::size_t r = 0; r < num_regs; ++r) {
            assigned[r] = assigned[r] && ifo.then_out[r];
          }
        }
        open.pop_back();
        break;
      }
      default:
        if (in.dst != kNoReg) assigned[in.dst] = 1;
        break;
    }
  }

  // Nothing that runs after the loop may read what it wrote: code past its
  // end, and code before it inside an enclosing loop (the next trip).
  std::uint32_t after_from = loop_begin;
  for (std::uint32_t i = 0; i < loop_begin; ++i) {
    if (p.code[i].op == Opcode::kLoopBegin && p.code[i].match > loop_end) {
      after_from = i;
      break;
    }
  }
  for (std::uint32_t i = after_from; i < p.code.size(); ++i) {
    if (i == loop_begin) i = loop_end + 1;
    if (i >= p.code.size()) break;
    Status st = Status::Ok();
    ForEachRead(p, i, [&](RegId r) {
      if (st.ok() && written[r]) {
        st = fail(i, "writes " + RegLabel(p, r) +
                         ", which is read after the loop");
      }
    });
    MALI_RETURN_IF_ERROR(st);
  }
  return Status::Ok();
}

Status Verify(const Program& p) {
  if (!p.finalized()) {
    return FailedPreconditionError("program '" + p.name + "' not finalized");
  }
  const std::vector<SlotInfo> slots = CollectSlots(p);
  const std::uint32_t num_regs = static_cast<std::uint32_t>(p.regs.size());

  // Scalar args listed for kArg slot validation.
  std::vector<const ArgDecl*> scalar_args;
  for (const ArgDecl& arg : p.args) {
    if (arg.kind == ArgKind::kScalar) scalar_args.push_back(&arg);
  }

  std::vector<bool> defined(num_regs, false);

  auto reg_type = [&](RegId r) { return p.regs[r].type; };
  auto check_reg = [&](RegId r) { return r != kNoReg && r < num_regs; };
  auto check_use = [&](RegId r) { return check_reg(r) && defined[r]; };

  for (std::uint32_t i = 0; i < p.code.size(); ++i) {
    const Instr& in = p.code[i];
    const Type dt = in.dst != kNoReg && in.dst < num_regs ? reg_type(in.dst) : Type{};

    auto require = [&](bool cond, const std::string& what) -> Status {
      if (!cond) return Fail(i, in, what);
      return Status::Ok();
    };
    auto def_dst = [&]() -> Status {
      if (!check_reg(in.dst)) return Fail(i, in, "bad dst register");
      defined[in.dst] = true;
      return Status::Ok();
    };

    switch (in.op) {
      case Opcode::kConstI:
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(IsInt(dt.scalar) || IsFloat(dt.scalar),
                                     "const into untyped register"));
        break;
      case Opcode::kConstF:
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(IsFloat(dt.scalar), "const.f into integer register"));
        break;
      case Opcode::kArg: {
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(
            in.imm >= 0 && static_cast<std::size_t>(in.imm) < scalar_args.size(),
            "scalar arg slot out of range"));
        MALI_RETURN_IF_ERROR(require(dt.is_scalar(), "arg loads are scalar"));
        MALI_RETURN_IF_ERROR(require(
            scalar_args[static_cast<std::size_t>(in.imm)]->elem == dt.scalar,
            "arg type mismatch"));
        break;
      }
      case Opcode::kGlobalId:
      case Opcode::kLocalId:
      case Opcode::kGroupId:
      case Opcode::kGlobalSize:
      case Opcode::kLocalSize:
      case Opcode::kNumGroups:
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(dt == kir::I32(), "builtins produce scalar i32"));
        MALI_RETURN_IF_ERROR(require(in.imm >= 0 && in.imm < 3, "dimension out of range"));
        break;
      case Opcode::kMov:
      case Opcode::kNeg:
      case Opcode::kAbs:
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == dt, "type mismatch"));
        break;
      case Opcode::kFloor:
      case Opcode::kSqrt:
      case Opcode::kRsqrt:
      case Opcode::kExp:
      case Opcode::kLog:
      case Opcode::kSin:
      case Opcode::kCos:
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == dt, "type mismatch"));
        MALI_RETURN_IF_ERROR(require(IsFloat(dt.scalar), "float-only op"));
        break;
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kMin:
      case Opcode::kMax:
        MALI_RETURN_IF_ERROR(require(check_use(in.a) && check_use(in.b),
                                     "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == dt && reg_type(in.b) == dt,
                                     "operand type mismatch"));
        break;
      case Opcode::kFma:
        MALI_RETURN_IF_ERROR(require(
            check_use(in.a) && check_use(in.b) && check_use(in.c),
            "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(IsFloat(dt.scalar), "fma is float-only"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == dt && reg_type(in.b) == dt &&
                                         reg_type(in.c) == dt,
                                     "operand type mismatch"));
        break;
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kIDiv:
      case Opcode::kIRem:
        MALI_RETURN_IF_ERROR(require(check_use(in.a) && check_use(in.b),
                                     "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(IsInt(dt.scalar), "integer-only op on float"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == dt && reg_type(in.b) == dt,
                                     "operand type mismatch"));
        break;
      case Opcode::kNot:
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(IsInt(dt.scalar), "bitwise op on float"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == dt, "type mismatch"));
        break;
      case Opcode::kShl:
      case Opcode::kShr:
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(IsInt(dt.scalar), "shift on float"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == dt, "type mismatch"));
        MALI_RETURN_IF_ERROR(require(
            in.imm >= 0 &&
                in.imm < static_cast<std::int64_t>(ScalarBytes(dt.scalar)) * 8,
            "shift amount out of range"));
        break;
      case Opcode::kCmpLt:
      case Opcode::kCmpLe:
      case Opcode::kCmpEq:
      case Opcode::kCmpNe: {
        MALI_RETURN_IF_ERROR(require(check_use(in.a) && check_use(in.b),
                                     "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        const Type at = reg_type(in.a);
        MALI_RETURN_IF_ERROR(require(at == reg_type(in.b), "operand type mismatch"));
        MALI_RETURN_IF_ERROR(require(dt == kir::I32(at.lanes),
                                     "compare result must be i32 mask"));
        break;
      }
      case Opcode::kSelect: {
        MALI_RETURN_IF_ERROR(require(
            check_use(in.a) && check_use(in.b) && check_use(in.c),
            "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == kir::I32(dt.lanes),
                                     "select cond must be i32 mask"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.b) == dt && reg_type(in.c) == dt,
                                     "operand type mismatch"));
        break;
      }
      case Opcode::kConvert:
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(reg_type(in.a).lanes == dt.lanes,
                                     "convert changes lane count"));
        break;
      case Opcode::kSplat:
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(reg_type(in.a).is_scalar(), "splat source must be scalar"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a).scalar == dt.scalar,
                                     "splat scalar type mismatch"));
        break;
      case Opcode::kExtract:
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(dt.is_scalar(), "extract dst must be scalar"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a).scalar == dt.scalar,
                                     "extract scalar type mismatch"));
        MALI_RETURN_IF_ERROR(require(
            in.imm >= 0 && in.imm < reg_type(in.a).lanes, "lane out of range"));
        break;
      case Opcode::kInsert:
        MALI_RETURN_IF_ERROR(require(check_use(in.a) && check_use(in.b),
                                     "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == dt, "insert base type mismatch"));
        MALI_RETURN_IF_ERROR(require(
            reg_type(in.b) == Type(dt.scalar, 1), "insert value must be scalar"));
        MALI_RETURN_IF_ERROR(require(in.imm >= 0 && in.imm < dt.lanes,
                                     "lane out of range"));
        break;
      case Opcode::kSlide:
        MALI_RETURN_IF_ERROR(require(check_use(in.a) && check_use(in.b),
                                     "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == dt && reg_type(in.b) == dt,
                                     "slide operand type mismatch"));
        MALI_RETURN_IF_ERROR(require(in.imm >= 0 && in.imm <= dt.lanes,
                                     "slide amount out of range"));
        break;
      case Opcode::kVSum:
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined source"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(dt.is_scalar(), "vsum dst must be scalar"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a).scalar == dt.scalar,
                                     "vsum scalar type mismatch"));
        break;
      case Opcode::kLoad: {
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined index"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(in.slot < slots.size(), "slot out of range"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == kir::I32(),
                                     "index must be scalar i32"));
        MALI_RETURN_IF_ERROR(require(slots[in.slot].elem == dt.scalar,
                                     "load element type mismatch"));
        MALI_RETURN_IF_ERROR(require(slots[in.slot].kind != ArgKind::kBufferWO,
                                     "load from write-only buffer"));
        break;
      }
      case Opcode::kStore: {
        MALI_RETURN_IF_ERROR(require(check_use(in.a) && check_use(in.b),
                                     "undefined value/index"));
        MALI_RETURN_IF_ERROR(require(in.slot < slots.size(), "slot out of range"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.b) == kir::I32(),
                                     "index must be scalar i32"));
        MALI_RETURN_IF_ERROR(require(slots[in.slot].elem == reg_type(in.a).scalar,
                                     "store element type mismatch"));
        MALI_RETURN_IF_ERROR(require(slots[in.slot].kind != ArgKind::kBufferRO,
                                     "store to read-only buffer"));
        break;
      }
      case Opcode::kAtomicAddI32:
        MALI_RETURN_IF_ERROR(require(check_use(in.a) && check_use(in.b),
                                     "undefined value/index"));
        MALI_RETURN_IF_ERROR(require(in.slot < slots.size(), "slot out of range"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == kir::I32() &&
                                         reg_type(in.b) == kir::I32(),
                                     "atomic operands must be scalar i32"));
        MALI_RETURN_IF_ERROR(require(slots[in.slot].elem == ScalarType::kI32,
                                     "atomic target must be i32 buffer"));
        MALI_RETURN_IF_ERROR(require(slots[in.slot].kind != ArgKind::kBufferRO,
                                     "atomic to read-only buffer"));
        break;
      case Opcode::kBarrier:
        break;
      case Opcode::kLoopBegin:
        MALI_RETURN_IF_ERROR(require(check_use(in.a) && check_use(in.b),
                                     "undefined loop bounds"));
        MALI_RETURN_IF_ERROR(def_dst());
        MALI_RETURN_IF_ERROR(require(dt == kir::I32(), "loop var must be scalar i32"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == kir::I32() &&
                                         reg_type(in.b) == kir::I32(),
                                     "loop bounds must be scalar i32"));
        MALI_RETURN_IF_ERROR(require(in.imm > 0, "loop step must be positive"));
        break;
      case Opcode::kIfBegin:
        MALI_RETURN_IF_ERROR(require(check_use(in.a), "undefined condition"));
        MALI_RETURN_IF_ERROR(require(reg_type(in.a) == kir::I32(),
                                     "if condition must be scalar i32"));
        break;
      case Opcode::kLoopEnd:
      case Opcode::kElse:
      case Opcode::kIfEnd:
        break;
      case Opcode::kNumOpcodes:
        return Fail(i, in, "invalid opcode");
    }
  }
  // ParallelFor contracts, once every register id is known to be valid.
  for (std::uint32_t i = 0; i < p.code.size(); ++i) {
    if (p.code[i].op == Opcode::kLoopBegin && p.code[i].parallel) {
      MALI_RETURN_IF_ERROR(VerifyParallelLoop(p, i));
    }
  }
  return Status::Ok();
}

}  // namespace malisim::kir
