#include "kir/passes.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace malisim::kir {
namespace {

struct WriteCounts {
  std::vector<std::uint32_t> writes;
  std::vector<std::uint32_t> reads;
};

WriteCounts CountAccesses(const Program& p) {
  WriteCounts wc;
  wc.writes.assign(p.regs.size(), 0);
  wc.reads.assign(p.regs.size(), 0);
  for (const Instr& in : p.code) {
    if (in.dst != kNoReg) ++wc.writes[in.dst];
    if (in.a != kNoReg) ++wc.reads[in.a];
    if (in.b != kNoReg) ++wc.reads[in.b];
    if (in.c != kNoReg) ++wc.reads[in.c];
  }
  return wc;
}

bool HasSideEffects(Opcode op) {
  switch (op) {
    case Opcode::kStore:
    case Opcode::kAtomicAddI32:
    case Opcode::kBarrier:
    case Opcode::kLoopBegin:
    case Opcode::kLoopEnd:
    case Opcode::kIfBegin:
    case Opcode::kElse:
    case Opcode::kIfEnd:
      return true;
    default:
      return false;
  }
}

/// A known scalar constant value per register (lane-uniform constants only,
/// which is all kConstI/kConstF produce).
struct ConstInfo {
  bool known = false;
  bool is_float = false;
  double f = 0.0;
  std::int64_t i = 0;
};

}  // namespace

StatusOr<int> ConstantFold(Program* program) {
  MALI_CHECK(program != nullptr);
  int folded_total = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const WriteCounts wc = CountAccesses(*program);
    std::vector<ConstInfo> consts(program->regs.size());
    for (const Instr& in : program->code) {
      if ((in.op == Opcode::kConstI || in.op == Opcode::kConstF) &&
          wc.writes[in.dst] == 1) {
        ConstInfo& ci = consts[in.dst];
        ci.known = true;
        ci.is_float = in.op == Opcode::kConstF;
        ci.f = in.fimm;
        ci.i = in.imm;
      }
    }

    for (Instr& in : program->code) {
      if (in.dst == kNoReg || wc.writes[in.dst] != 1) continue;
      const bool binary = in.op == Opcode::kAdd || in.op == Opcode::kSub ||
                          in.op == Opcode::kMul || in.op == Opcode::kDiv ||
                          in.op == Opcode::kIDiv || in.op == Opcode::kIRem;
      if (!binary) continue;
      const ConstInfo& ca = consts[in.a];
      const ConstInfo& cb = consts[in.b];
      if (!ca.known || !cb.known) continue;

      if (IsFloat(in.type.scalar)) {
        const double a = ca.is_float ? ca.f : static_cast<double>(ca.i);
        const double b = cb.is_float ? cb.f : static_cast<double>(cb.i);
        double r = 0.0;
        switch (in.op) {
          case Opcode::kAdd: r = a + b; break;
          case Opcode::kSub: r = a - b; break;
          case Opcode::kMul: r = a * b; break;
          case Opcode::kDiv: r = a / b; break;
          default: continue;  // integer-only ops cannot have a float dst
        }
        const Type t = in.type;
        const RegId dst = in.dst;
        in = Instr{};
        in.op = Opcode::kConstF;
        in.type = t;
        in.fimm = r;
        in.dst = dst;
      } else {
        std::int64_t a = ca.is_float ? static_cast<std::int64_t>(ca.f) : ca.i;
        std::int64_t b = cb.is_float ? static_cast<std::int64_t>(cb.f) : cb.i;
        const bool i32 = in.type.scalar == ScalarType::kI32;
        if (i32) {
          // The values the registers hold at run time: i32 constants are
          // truncated when materialized.
          a = static_cast<std::int32_t>(a);
          b = static_cast<std::int32_t>(b);
        }
        if ((in.op == Opcode::kDiv || in.op == Opcode::kIDiv ||
             in.op == Opcode::kIRem) &&
            (b == 0 || (i32 ? DivOverflows<std::int32_t>(a, b)
                            : DivOverflows(a, b)))) {
          continue;  // leave the fault to runtime
        }
        // Add/sub/mul wrap in 64 bits; an i32 result wraps again when the
        // constant is materialized, which equals 32-bit wrapping.
        std::int64_t r = 0;
        switch (in.op) {
          case Opcode::kAdd: r = WrapAdd(a, b); break;
          case Opcode::kSub: r = WrapSub(a, b); break;
          case Opcode::kMul: r = WrapMul(a, b); break;
          case Opcode::kDiv:
          case Opcode::kIDiv: r = a / b; break;
          case Opcode::kIRem: r = a % b; break;
          default: continue;
        }
        const Type t = in.type;
        const RegId dst = in.dst;
        in = Instr{};
        in.op = Opcode::kConstI;
        in.type = t;
        in.imm = r;
        in.dst = dst;
      }
      ++folded_total;
      changed = true;
    }
    if (changed) {
      // Re-resolve control matches invalidated by rewrites (none move, but
      // keep the invariant that passes leave a finalized program).
      MALI_RETURN_IF_ERROR(program->Finalize());
    }
  }
  MALI_RETURN_IF_ERROR(program->Finalize());
  return folded_total;
}

StatusOr<int> DeadCodeElim(Program* program) {
  MALI_CHECK(program != nullptr);
  int removed_total = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const WriteCounts wc = CountAccesses(*program);
    std::vector<Instr> kept;
    kept.reserve(program->code.size());
    for (const Instr& in : program->code) {
      const bool dead = !HasSideEffects(in.op) && in.op != Opcode::kLoad &&
                        in.dst != kNoReg && wc.reads[in.dst] == 0;
      // Loads are kept: they can fault and they touch the memory system;
      // a real compiler may not prove them dead either.
      if (dead) {
        ++removed_total;
        changed = true;
      } else {
        kept.push_back(in);
      }
    }
    program->code = std::move(kept);
  }
  MALI_RETURN_IF_ERROR(program->Finalize());
  return removed_total;
}

std::uint32_t MaxLiveRegisterBytes(const Program& program) {
  const std::size_t n = program.code.size();
  const std::size_t nregs = program.regs.size();
  constexpr std::uint32_t kUnset = ~0u;
  std::vector<std::uint32_t> first_def(nregs, kUnset);
  std::vector<std::uint32_t> last_use(nregs, 0);

  auto note_def = [&](RegId r, std::uint32_t i) {
    if (r == kNoReg) return;
    if (first_def[r] == kUnset) first_def[r] = i;
    last_use[r] = std::max(last_use[r], i);
  };
  auto note_use = [&](RegId r, std::uint32_t i) {
    if (r == kNoReg) return;
    last_use[r] = std::max(last_use[r], i);
  };

  for (std::uint32_t i = 0; i < n; ++i) {
    const Instr& in = program.code[i];
    note_use(in.a, i);
    note_use(in.b, i);
    note_use(in.c, i);
    note_def(in.dst, i);
    if (in.op == Opcode::kLoopEnd) {
      // The loop variable and the end bound are read at the back edge.
      const Instr& begin = program.code[in.match];
      note_use(begin.dst, i);
      note_use(begin.b, i);
    }
  }

  // Widen intervals across loops: a register defined before a loop and last
  // used inside it stays live for the whole loop (it is needed on every
  // iteration).
  for (std::uint32_t i = 0; i < n; ++i) {
    const Instr& in = program.code[i];
    if (in.op != Opcode::kLoopBegin) continue;
    const std::uint32_t begin = i;
    const std::uint32_t end = in.match;
    for (std::size_t r = 1; r < nregs; ++r) {
      if (first_def[r] == kUnset) continue;
      if (first_def[r] < begin && last_use[r] > begin && last_use[r] < end) {
        last_use[r] = end;
      }
    }
  }

  // Sweep: +bytes at first def, -bytes after last use.
  std::vector<std::int64_t> delta(n + 2, 0);
  for (std::size_t r = 1; r < nregs; ++r) {
    if (first_def[r] == kUnset) continue;
    const std::int64_t bytes = program.regs[r].type.bytes();
    delta[first_def[r]] += bytes;
    delta[last_use[r] + 1] -= bytes;
  }
  std::int64_t live = 0;
  std::int64_t peak = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    live += delta[i];
    peak = std::max(peak, live);
  }
  return static_cast<std::uint32_t>(peak);
}

ProgramFeatures AnalyzeFeatures(const Program& program) {
  ProgramFeatures f;
  f.static_instructions = static_cast<std::uint32_t>(program.code.size());
  f.has_barrier = program.has_barrier();

  for (const RegInfo& reg : program.regs) {
    f.max_vector_bytes = std::max(f.max_vector_bytes, reg.type.bytes());
  }

  std::uint32_t loop_depth = 0;
  std::uint32_t if_depth_in_loop = 0;
  // Track whether the innermost open loop contains data-dependent control
  // flow together with an f64 special function (the erratum shape).
  std::vector<bool> loop_has_if;
  std::vector<bool> loop_has_f64_special;

  for (const Instr& in : program.code) {
    switch (in.op) {
      case Opcode::kLoopBegin:
        ++loop_depth;
        f.max_loop_depth = std::max(f.max_loop_depth, loop_depth);
        loop_has_if.push_back(false);
        loop_has_f64_special.push_back(false);
        break;
      case Opcode::kLoopEnd:
        if (!loop_has_if.empty()) {
          if (loop_has_if.back() && loop_has_f64_special.back()) {
            f.has_f64_special_in_divergent_loop = true;
          }
          // Inner-loop findings propagate to the enclosing loop.
          if (loop_has_if.size() >= 2) {
            loop_has_if[loop_has_if.size() - 2] =
                loop_has_if[loop_has_if.size() - 2] || loop_has_if.back();
            loop_has_f64_special[loop_has_f64_special.size() - 2] =
                loop_has_f64_special[loop_has_f64_special.size() - 2] ||
                loop_has_f64_special.back();
          }
          loop_has_if.pop_back();
          loop_has_f64_special.pop_back();
        }
        --loop_depth;
        break;
      case Opcode::kIfBegin:
        if (!loop_has_if.empty()) loop_has_if.back() = true;
        ++if_depth_in_loop;
        break;
      case Opcode::kIfEnd:
        if (if_depth_in_loop > 0) --if_depth_in_loop;
        break;
      case Opcode::kAtomicAddI32:
        f.has_atomics = true;
        break;
      default:
        break;
    }
    if (in.type.scalar == ScalarType::kF64) {
      f.has_f64 = true;
      if (ClassifyOpcode(in.op) == OpClass::kArithSpecial) {
        f.has_f64_special = true;
        if (!loop_has_f64_special.empty()) loop_has_f64_special.back() = true;
      }
    }
  }
  return f;
}

}  // namespace malisim::kir
