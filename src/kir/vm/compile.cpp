// Lowers a finalized kir::Program into the bytecode format of bytecode.h.
//
// Passes, in order:
//   1. branch-target scan — structured control flow only ever jumps to
//      match / match+1, so the target set is exact;
//   2. def/use census — gates compare-and-branch and trailing-move fusion
//      on the intermediate register being single-def single-use (the fused
//      forms never materialize it);
//   3. lowering — one VInstr per source instruction, with adjacent hot
//      pairs collapsed into superinstructions (cmp+kIfBegin, load+consumer,
//      op+trailing kMov, float fma/add+kLoopEnd back edges — chains like
//      fma+mov+loop-end collapse to one dispatch), scalar types burned into
//      the opcode, constants pre-broadcast into the pool, load/store element
//      sizes strength-reduced to shifts, side tables recording the
//      source-pc / weight / tally mapping;
//   4. branch patching — source targets and if reconvergence points
//      rewritten through the src→vpc map;
//   5. register layout — each register the bytecode references gets an
//      offset in a compact one-lane frame, sized from its type (a batch of
//      W lanes holds W such values per register, side by side); the
//      registers an item may read before writing them are listed for
//      zeroing, and each ParallelFor loop gets the list of registers its
//      body reads from outside.
#include "kir/vm/bytecode.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "kir/exec_types.h"

namespace malisim::kir::vm {
namespace {

/// Variant selection over the consecutive typed opcode groups (bytecode.h).
VOp Typed4(VOp f32_base, ScalarType t) {
  return static_cast<VOp>(static_cast<int>(f32_base) + static_cast<int>(t));
}
/// Float pair: anything non-f32 takes the f64 variant — exactly the
/// interpreter's `scalar == kF32 ? ... : ...` branch shape.
VOp FloatPair(VOp f32_base, ScalarType t) {
  return static_cast<VOp>(static_cast<int>(f32_base) +
                          (t != ScalarType::kF32 ? 1 : 0));
}
/// Int pair: anything non-i32 takes the i64 variant (interp parity again).
VOp IntPair(VOp i32_base, ScalarType t) {
  return static_cast<VOp>(static_cast<int>(i32_base) +
                          (t != ScalarType::kI32 ? 1 : 0));
}

bool IsCmp(Opcode op) {
  return op == Opcode::kCmpLt || op == Opcode::kCmpLe ||
         op == Opcode::kCmpEq || op == Opcode::kCmpNe;
}

/// Ops whose only effect is writing a value into their destination
/// register. A trailing single-use kMov after one of these can be absorbed
/// by retargeting the destination (the temp is then never materialized,
/// exactly like the fused compare's mask register). Registers are typed, so
/// readers only ever observe the op's written lanes — the absorbed copy's
/// high-lane bytes are dead either way.
bool IsValueOp(Opcode op) {
  switch (op) {
    case Opcode::kStore:
    case Opcode::kAtomicAddI32:
    case Opcode::kBarrier:
    case Opcode::kLoopBegin:
    case Opcode::kLoopEnd:
    case Opcode::kIfBegin:
    case Opcode::kElse:
    case Opcode::kIfEnd:
    case Opcode::kNumOpcodes:
      return false;
    default:
      return true;
  }
}

/// Fused load+consumer selection: the float-pair base VOp for a consumer
/// that reads the just-loaded register, or kNumVOps when the pair does not
/// fuse. `ld` is the kLoad, `c` the instruction after it.
VOp LoadConsumerBase(const Instr& ld, const Instr& c) {
  const ScalarType t = c.type.scalar;
  if (t != ScalarType::kF32 && t != ScalarType::kF64) return VOp::kNumVOps;
  switch (c.op) {
    case Opcode::kFma:
      if (c.a == ld.dst || c.b == ld.dst || c.c == ld.dst) {
        return VOp::kLoadFmaF32;
      }
      return VOp::kNumVOps;
    case Opcode::kAdd:
      return c.a == ld.dst || c.b == ld.dst ? VOp::kLoadAddF32
                                            : VOp::kNumVOps;
    case Opcode::kSub:
      return c.a == ld.dst || c.b == ld.dst ? VOp::kLoadSubF32
                                            : VOp::kNumVOps;
    case Opcode::kMul:
      return c.a == ld.dst || c.b == ld.dst ? VOp::kLoadMulF32
                                            : VOp::kNumVOps;
    case Opcode::kSplat:
      return c.a == ld.dst ? VOp::kLoadSplatF32 : VOp::kNumVOps;
    default:
      return VOp::kNumVOps;
  }
}

bool IsBackedgeFused(VOp op) {
  return (op >= VOp::kFmaLoopEndF32 && op <= VOp::kAddLoopEndF64) ||
         op == VOp::kLoadFmaLoopEndF32 || op == VOp::kLoadFmaLoopEndF64;
}
bool IsLoadFused(VOp op) {
  return op >= VOp::kLoadFmaF32 && op <= VOp::kLoadFmaLoopEndF64;
}

VOp CmpBase(Opcode op) {
  switch (op) {
    case Opcode::kCmpLt: return VOp::kCmpLtF32;
    case Opcode::kCmpLe: return VOp::kCmpLeF32;
    case Opcode::kCmpEq: return VOp::kCmpEqF32;
    default: return VOp::kCmpNeF32;
  }
}

VOp CmpBrBase(Opcode op) {
  switch (op) {
    case Opcode::kCmpLt: return VOp::kCmpBrLtF32;
    case Opcode::kCmpLe: return VOp::kCmpBrLeF32;
    case Opcode::kCmpEq: return VOp::kCmpBrEqF32;
    default: return VOp::kCmpBrNeF32;
  }
}

int HistIdx(const Instr& in) {
  return OpHistogram::Index(ClassifyOpcode(in.op), in.type.scalar,
                            LaneIndex(in.type.lanes));
}

/// Pre-broadcasts a kConstI / kConstF immediate exactly as the interpreter
/// materializes it per step.
RegValue BroadcastConst(const Instr& in) {
  RegValue v;
  std::memset(&v, 0, sizeof(v));
  const int lanes = in.type.lanes;
  if (in.op == Opcode::kConstF) {
    if (in.type.scalar == ScalarType::kF32) {
      for (int l = 0; l < lanes; ++l) v.f32[l] = static_cast<float>(in.fimm);
    } else {
      for (int l = 0; l < lanes; ++l) v.f64[l] = in.fimm;
    }
    return v;
  }
  switch (in.type.scalar) {
    case ScalarType::kF32:
      for (int l = 0; l < lanes; ++l) v.f32[l] = static_cast<float>(in.imm);
      break;
    case ScalarType::kF64:
      for (int l = 0; l < lanes; ++l) v.f64[l] = static_cast<double>(in.imm);
      break;
    case ScalarType::kI32:
      for (int l = 0; l < lanes; ++l)
        v.i32[l] = static_cast<std::int32_t>(in.imm);
      break;
    case ScalarType::kI64:
      for (int l = 0; l < lanes; ++l) v.i64[l] = in.imm;
      break;
  }
  return v;
}

}  // namespace

StatusOr<std::shared_ptr<const CompiledProgram>> CompileProgram(
    const Program& program) {
  if (!program.finalized()) {
    return FailedPreconditionError("program not finalized: " + program.name);
  }
  const std::uint32_t n = static_cast<std::uint32_t>(program.code.size());
  const std::size_t num_src_regs = program.regs.size();

  // Pass 1+2: branch targets, nesting depth and the mask-register census.
  std::vector<char> is_target(n + 1, 0);
  std::vector<std::uint32_t> defs(num_src_regs, 0);
  std::vector<std::uint32_t> uses(num_src_regs, 0);
  std::uint32_t depth = 0;
  std::uint32_t max_nesting = 0;
  for (const Instr& in : program.code) {
    if (in.op == Opcode::kLoopBegin || in.op == Opcode::kIfBegin) {
      max_nesting = std::max(max_nesting, ++depth);
    } else if ((in.op == Opcode::kLoopEnd || in.op == Opcode::kIfEnd) &&
               depth > 0) {
      --depth;
    }
    if (in.dst >= num_src_regs || in.a >= num_src_regs ||
        in.b >= num_src_regs || in.c >= num_src_regs) {
      return InternalError("register id out of range in kernel '" +
                           program.name + "'");
    }
    ++defs[in.dst];
    ++uses[in.a];
    ++uses[in.b];
    ++uses[in.c];
    switch (in.op) {
      case Opcode::kLoopBegin:
      case Opcode::kLoopEnd:
      case Opcode::kIfBegin:
      case Opcode::kElse: {
        if (in.match > n) {
          return InternalError("malformed control flow in kernel '" +
                               program.name + "'");
        }
        // kElse jumps to its kIfEnd itself (which executes and is counted);
        // everything else jumps past its matching marker.
        is_target[in.op == Opcode::kElse ? in.match : in.match + 1] = 1;
        if (in.op == Opcode::kLoopEnd) {
          // The loop variable and bound live across the back edge; the
          // kLoopEnd reads (and steps) them through the begin instruction.
          const Instr& begin = program.code[in.match];
          ++uses[begin.dst];
          ++uses[begin.b];
        }
        break;
      }
      default:
        break;
    }
  }

  // ParallelFor loops the VM may batch: the contract is re-checked here so
  // an unverified program can never be batched wrongly (it then runs as a
  // plain loop, which is always correct).
  std::vector<char> par_loop(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Instr& in = program.code[i];
    par_loop[i] = in.op == Opcode::kLoopBegin && in.parallel &&
                  VerifyParallelLoop(program, i).ok();
  }

  auto cp = std::make_shared<CompiledProgram>();
  cp->name = program.name;
  cp->source_len = n;
  cp->max_nesting = max_nesting;
  cp->has_barrier = program.has_barrier();
  cp->code.reserve(n);
  cp->src_pc.reserve(n);
  cp->weight.reserve(n);
  cp->tally_begin.reserve(n + 1);
  cp->tally_slots.reserve(n + (n / 8));

  // Slot element sizes (buffer args in decl order, then locals), matching
  // the executor slot tables.
  std::vector<std::uint8_t> slot_shift;
  for (const ArgDecl& arg : program.args) {
    if (arg.kind == ArgKind::kScalar) continue;
    slot_shift.push_back(static_cast<std::uint8_t>(
        std::countr_zero(ScalarBytes(arg.elem))));
  }
  for (const LocalArrayDecl& local : program.locals) {
    slot_shift.push_back(static_cast<std::uint8_t>(
        std::countr_zero(ScalarBytes(local.elem))));
  }

  struct Patch {
    std::uint32_t vidx;
    std::uint32_t src_target;
  };
  std::vector<Patch> patches;
  std::vector<Patch> reconv_patches;  // into imm: an if's reconvergence vpc
  std::vector<std::uint32_t> vpc_of(n + 1, 0);
  // Where lanes that split at the if opened at `i` meet again: its kIfEnd
  // when it has an else (both paths execute it), else just past it.
  auto if_reconv = [&](std::uint32_t i) {
    const Instr& br = program.code[i];
    return program.code[br.match].op == Opcode::kElse
               ? program.code[br.match].match
               : br.match + 1;
  };

  // Pass 3: lowering.
  for (std::uint32_t i = 0; i < n;) {
    const Instr& in = program.code[i];
    const std::uint32_t vpc = static_cast<std::uint32_t>(cp->code.size());
    vpc_of[i] = vpc;
    cp->tally_begin.push_back(
        static_cast<std::uint32_t>(cp->tally_slots.size()));
    cp->src_pc.push_back(i);

    VInstr v;
    v.lanes = in.type.lanes;
    v.dst = in.dst;
    v.a = in.a;
    v.b = in.b;
    v.c = in.c;
    v.imm = in.imm;
    std::uint8_t weight = 1;
    cp->tally_slots.push_back(
        {static_cast<std::int32_t>(HistIdx(in)), in.op});

    // Fusion: a single-def single-use scalar compare feeding the very next
    // kIfBegin (which nothing branches to) folds into one compare-and-branch.
    if (IsCmp(in.op) && in.type.lanes == 1 && in.dst != kNoReg &&
        i + 1 < n && program.code[i + 1].op == Opcode::kIfBegin &&
        program.code[i + 1].a == in.dst && defs[in.dst] == 1 &&
        uses[in.dst] == 1 && !is_target[i + 1]) {
      const Instr& br = program.code[i + 1];
      v.op = Typed4(CmpBrBase(in.op), program.regs[in.a].type.scalar);
      v.dst = kNoReg;  // the mask is never materialized
      v.c = kNoReg;
      v.target = 0;
      patches.push_back({vpc, br.match + 1});
      reconv_patches.push_back({vpc, if_reconv(i + 1)});
      weight = 2;
      v.weight = weight;
      cp->tally_slots.push_back(
          {static_cast<std::int32_t>(HistIdx(br)), br.op});
      vpc_of[i + 1] = vpc;
      cp->code.push_back(v);
      cp->weight.push_back(weight);
      i += 2;
      continue;
    }

    // Fusion: a load whose very next instruction (not a branch target)
    // consumes the loaded register folds into one load+consumer
    // superinstruction. The load half keeps its own register writes, so no
    // liveness gate is needed — the consumer reads the register file and
    // sees the fresh value in whichever operand slot(s) name it.
    std::uint32_t consumed = 1;
    bool fused_load = false;
    if (in.op == Opcode::kLoad && i + 1 < n && !is_target[i + 1]) {
      const Instr& c = program.code[i + 1];
      const VOp base = LoadConsumerBase(in, c);
      if (base != VOp::kNumVOps) {
        if (in.slot >= slot_shift.size()) {
          return InternalError("memory slot out of range in kernel '" +
                               program.name + "'");
        }
        v.op = FloatPair(base, c.type.scalar);
        v.lanes = c.type.lanes;
        v.dst = c.dst;
        v.a = c.a;
        v.b = c.b;
        v.c = c.c;
        v.slot = in.slot;
        v.aux8 = slot_shift[in.slot];
        v.access_bytes =
            ScalarBytes(in.type.scalar) * static_cast<std::uint32_t>(in.type.lanes);
        v.target = static_cast<std::uint32_t>(in.a) |
                   (static_cast<std::uint32_t>(in.dst) << 16);
        weight = 2;
        cp->tally_slots.push_back(
            {static_cast<std::int32_t>(HistIdx(c)), c.op});
        vpc_of[i + 1] = vpc;
        fused_load = true;
        consumed = 2;
      }
    }

    if (!fused_load) switch (in.op) {
      case Opcode::kConstI:
      case Opcode::kConstF:
        v.op = VOp::kConst;
        v.target = static_cast<std::uint32_t>(cp->const_pool.size());
        v.access_bytes =
            ScalarBytes(in.type.scalar) * static_cast<std::uint32_t>(v.lanes);
        cp->const_pool.push_back(BroadcastConst(in));
        break;
      case Opcode::kArg:
        v.op = Typed4(VOp::kArgF32, in.type.scalar);
        break;
      case Opcode::kGlobalId:
        v.op = VOp::kCtx;
        break;
      case Opcode::kLocalId:
        v.op = VOp::kCtx;
        v.imm = in.imm + 3;
        break;
      case Opcode::kGroupId:
        v.op = VOp::kCtx;
        v.imm = in.imm + 6;
        break;
      case Opcode::kGlobalSize:
        v.op = VOp::kLaunch;
        break;
      case Opcode::kLocalSize:
        v.op = VOp::kLaunch;
        v.imm = in.imm + 3;
        break;
      case Opcode::kNumGroups:
        v.op = VOp::kLaunch;
        v.imm = in.imm + 6;
        break;
      case Opcode::kMov:
        v.op = VOp::kMov;
        v.access_bytes = in.type.bytes();
        break;
      case Opcode::kAdd:
        v.op = Typed4(VOp::kAddF32, in.type.scalar);
        break;
      case Opcode::kSub:
        v.op = Typed4(VOp::kSubF32, in.type.scalar);
        break;
      case Opcode::kMul:
        v.op = Typed4(VOp::kMulF32, in.type.scalar);
        break;
      case Opcode::kDiv:
        v.op = Typed4(VOp::kDivF32, in.type.scalar);
        break;
      case Opcode::kIDiv:
        v.op = IntPair(VOp::kIDivI32, in.type.scalar);
        break;
      case Opcode::kIRem:
        v.op = IntPair(VOp::kIRemI32, in.type.scalar);
        break;
      case Opcode::kMin:
        v.op = Typed4(VOp::kMinF32, in.type.scalar);
        break;
      case Opcode::kMax:
        v.op = Typed4(VOp::kMaxF32, in.type.scalar);
        break;
      case Opcode::kFma:
        v.op = FloatPair(VOp::kFmaF32, in.type.scalar);
        break;
      case Opcode::kNeg:
        v.op = Typed4(VOp::kNegF32, in.type.scalar);
        break;
      case Opcode::kAbs:
        v.op = Typed4(VOp::kAbsF32, in.type.scalar);
        break;
      case Opcode::kFloor:
      case Opcode::kSqrt:
      case Opcode::kRsqrt:
      case Opcode::kExp:
      case Opcode::kLog:
      case Opcode::kSin:
      case Opcode::kCos: {
        const ScalarType t = in.type.scalar;
        if (t != ScalarType::kF32 && t != ScalarType::kF64) {
          // The interpreter faults here at run time; a verified program can
          // never reach it, so surfacing it at compile time loses nothing.
          return InternalError("float-only op on integer register");
        }
        VOp base = VOp::kFloorF32;
        switch (in.op) {
          case Opcode::kFloor: base = VOp::kFloorF32; break;
          case Opcode::kSqrt: base = VOp::kSqrtF32; break;
          case Opcode::kRsqrt: base = VOp::kRsqrtF32; break;
          case Opcode::kExp: base = VOp::kExpF32; break;
          case Opcode::kLog: base = VOp::kLogF32; break;
          case Opcode::kSin: base = VOp::kSinF32; break;
          default: base = VOp::kCosF32; break;
        }
        v.op = FloatPair(base, t);
        break;
      }
      case Opcode::kAnd:
        v.op = IntPair(VOp::kAndI32, in.type.scalar);
        break;
      case Opcode::kOr:
        v.op = IntPair(VOp::kOrI32, in.type.scalar);
        break;
      case Opcode::kXor:
        v.op = IntPair(VOp::kXorI32, in.type.scalar);
        break;
      case Opcode::kNot:
        v.op = IntPair(VOp::kNotI32, in.type.scalar);
        break;
      case Opcode::kShl:
        v.op = IntPair(VOp::kShlI32, in.type.scalar);
        break;
      case Opcode::kShr:
        v.op = IntPair(VOp::kShrI32, in.type.scalar);
        break;
      case Opcode::kCmpLt:
      case Opcode::kCmpLe:
      case Opcode::kCmpEq:
      case Opcode::kCmpNe:
        v.op = Typed4(CmpBase(in.op), program.regs[in.a].type.scalar);
        break;
      case Opcode::kSelect:
        v.op = Typed4(VOp::kSelectF32, in.type.scalar);
        break;
      case Opcode::kConvert:
        v.op = VOp::kCvt;
        v.aux8 = static_cast<std::uint8_t>(
            (static_cast<int>(program.regs[in.a].type.scalar) << 2) |
            static_cast<int>(in.type.scalar));
        break;
      case Opcode::kSplat:
        v.op = Typed4(VOp::kSplatF32, in.type.scalar);
        break;
      case Opcode::kExtract:
        v.op = Typed4(VOp::kExtractF32, in.type.scalar);
        v.aux8 = program.regs[in.a].type.lanes;
        break;
      case Opcode::kInsert:
        v.op = Typed4(VOp::kInsertF32, in.type.scalar);
        break;
      case Opcode::kSlide:
        v.op = Typed4(VOp::kSlideF32, in.type.scalar);
        break;
      case Opcode::kVSum:
        v.op = Typed4(VOp::kVSumF32, in.type.scalar);
        v.aux8 = program.regs[in.a].type.lanes;
        break;
      case Opcode::kLoad:
      case Opcode::kStore:
      case Opcode::kAtomicAddI32:
        v.op = in.op == Opcode::kLoad    ? VOp::kLoad
               : in.op == Opcode::kStore ? VOp::kStore
                                         : VOp::kAtomicAddI32;
        v.slot = in.slot;
        if (in.slot >= slot_shift.size()) {
          return InternalError("memory slot out of range in kernel '" +
                               program.name + "'");
        }
        v.aux8 = slot_shift[in.slot];
        v.access_bytes =
            ScalarBytes(in.type.scalar) * static_cast<std::uint32_t>(v.lanes);
        break;
      case Opcode::kBarrier:
        v.op = VOp::kBarrier;
        weight = 0;  // the interpreter counts barriers in the histogram and
                     // tally but not in step weights (RunToBarrier parity)
        break;
      case Opcode::kLoopBegin:
        v.op = VOp::kLoopBegin;
        if (par_loop[i]) {
          v.op = VOp::kParLoopBegin;
          v.access_bytes = static_cast<std::uint32_t>(cp->par_loops.size());
          cp->par_loops.push_back({});  // filled in after lowering
        }
        patches.push_back({vpc, in.match + 1});
        break;
      case Opcode::kLoopEnd: {
        const Instr& begin = program.code[in.match];
        v.op = par_loop[in.match] ? VOp::kParLoopEnd : VOp::kLoopEnd;
        v.dst = begin.dst;
        v.b = begin.b;
        v.imm = begin.imm;
        patches.push_back({vpc, in.match + 1});
        break;
      }
      case Opcode::kIfBegin:
        v.op = VOp::kBrZero;
        patches.push_back({vpc, in.match + 1});
        reconv_patches.push_back({vpc, if_reconv(i)});
        break;
      case Opcode::kElse:
        v.op = VOp::kJump;
        patches.push_back({vpc, in.match});
        break;
      case Opcode::kIfEnd:
        v.op = VOp::kNop;
        break;
      case Opcode::kNumOpcodes:
        return InternalError("invalid opcode");
    }

    // Fusion: absorb a trailing kMov of a single-def single-use result by
    // retargeting the destination — the builder's Assign() emits exactly
    // this `op temp; mov var <- temp` shape around every loop-carried
    // update, so reductions collapse by one dispatch per trip.
    if ((fused_load || IsValueOp(in.op)) && v.dst != kNoReg &&
        i + consumed < n && !is_target[i + consumed]) {
      const Instr& mv = program.code[i + consumed];
      if (mv.op == Opcode::kMov && mv.a == v.dst && defs[v.dst] == 1 &&
          uses[v.dst] == 1) {
        v.dst = mv.dst;
        ++weight;
        cp->tally_slots.push_back(
            {static_cast<std::int32_t>(HistIdx(mv)), mv.op});
        vpc_of[i + consumed] = vpc;
        ++consumed;
      }
    }

    // Fusion: a float fma/add or load+fma (possibly with its move absorbed
    // above) immediately followed by its loop's kLoopEnd folds the back
    // edge in — one dispatch then covers the whole tail of a reduction
    // loop body. The counter/bound registers ride in access_bytes (unused
    // for arith; recomputable for the load side). Load+fma additionally
    // needs imm for the step/target packing, so only zero-offset loads
    // qualify.
    if ((v.op == VOp::kFmaF32 || v.op == VOp::kFmaF64 ||
         v.op == VOp::kAddF32 || v.op == VOp::kAddF64 ||
         ((v.op == VOp::kLoadFmaF32 || v.op == VOp::kLoadFmaF64) &&
          v.imm == 0 &&
          v.access_bytes ==
              (static_cast<std::uint32_t>(v.lanes) << v.aux8))) &&
        i + consumed < n && !is_target[i + consumed] &&
        program.code[i + consumed].op == Opcode::kLoopEnd &&
        !par_loop[program.code[i + consumed].match]) {
      const Instr& le = program.code[i + consumed];
      const Instr& begin = program.code[le.match];
      switch (v.op) {
        case VOp::kFmaF32: v.op = VOp::kFmaLoopEndF32; break;
        case VOp::kFmaF64: v.op = VOp::kFmaLoopEndF64; break;
        case VOp::kAddF32: v.op = VOp::kAddLoopEndF32; break;
        case VOp::kAddF64: v.op = VOp::kAddLoopEndF64; break;
        case VOp::kLoadFmaF32: v.op = VOp::kLoadFmaLoopEndF32; break;
        default: v.op = VOp::kLoadFmaLoopEndF64; break;
      }
      v.access_bytes = static_cast<std::uint32_t>(begin.dst) |
                       (static_cast<std::uint32_t>(begin.b) << 16);
      if (v.op == VOp::kLoadFmaLoopEndF32 ||
          v.op == VOp::kLoadFmaLoopEndF64) {
        // Step in the low half (same i32 truncation as kLoopEnd), branch
        // target patched into the high half in pass 4.
        v.imm = static_cast<std::int64_t>(
            static_cast<std::uint32_t>(begin.imm));
      } else {
        v.imm = begin.imm;
      }
      patches.push_back({vpc, le.match + 1});
      ++weight;
      cp->tally_slots.push_back(
          {static_cast<std::int32_t>(HistIdx(le)), le.op});
      vpc_of[i + consumed] = vpc;
      ++consumed;
    }

    v.weight = weight;
    cp->code.push_back(v);
    cp->weight.push_back(weight);
    i += consumed;
  }
  vpc_of[n] = static_cast<std::uint32_t>(cp->code.size());
  cp->tally_begin.push_back(
      static_cast<std::uint32_t>(cp->tally_slots.size()));

  // Pass 4: patch branch targets through the src→vpc map. kLoadFmaLoopEnd*
  // keeps its load registers in `target`, so its branch rides in the high
  // half of imm instead.
  for (const Patch& p : patches) {
    VInstr& v = cp->code[p.vidx];
    if (v.op == VOp::kLoadFmaLoopEndF32 || v.op == VOp::kLoadFmaLoopEndF64) {
      v.imm |= static_cast<std::int64_t>(vpc_of[p.src_target]) << 32;
    } else {
      v.target = vpc_of[p.src_target];
    }
  }
  for (const Patch& p : reconv_patches) {
    cp->code[p.vidx].imm = vpc_of[p.src_target];
  }

  // Pass 5: register layout. Every register an operand names gets an
  // offset in 4-byte units, in register order; 8-byte scalars are aligned
  // to 8 bytes. Units 0-1 are the unused-operand slot. Fused
  // superinstructions carry two extra register ids packed into a spare
  // 32-bit field (see bytecode.h); those participate like any other
  // operand.
  std::vector<char> used(num_src_regs, 0);
  for (const VInstr& v : cp->code) {
    used[v.dst] = used[v.a] = used[v.b] = used[v.c] = 1;
    // kLoadFmaLoopEnd* is both load- and back-edge-fused: all four packed
    // register ids participate.
    if (IsBackedgeFused(v.op)) {
      used[v.access_bytes & 0xffff] = used[v.access_bytes >> 16] = 1;
    }
    if (IsLoadFused(v.op)) {
      used[v.target & 0xffff] = used[v.target >> 16] = 1;
    }
  }
  std::vector<std::uint32_t> unit_of(num_src_regs, 0);
  std::uint32_t units = 2;
  for (std::size_t r = 1; r < num_src_regs; ++r) {
    if (!used[r]) continue;
    const Type t = program.regs[r].type;
    if (ScalarBytes(t.scalar) == 8) units = (units + 1) & ~1u;
    unit_of[r] = units;
    cp->frame_regs.push_back({static_cast<RegOff>(units),
                              static_cast<std::uint16_t>(t.bytes())});
    units += t.bytes() / 4;
  }
  units = (units + 1) & ~1u;
  if (units > 0xffff) {
    return InternalError("register frame too large in kernel '" +
                         program.name + "'");
  }
  cp->frame_bytes = units * 4;
  auto off = [&](std::uint32_t r) { return static_cast<RegOff>(unit_of[r]); };
  for (VInstr& v : cp->code) {
    v.dst = off(v.dst);
    v.a = off(v.a);
    v.b = off(v.b);
    v.c = off(v.c);
    if (IsBackedgeFused(v.op)) {
      v.access_bytes = static_cast<std::uint32_t>(off(v.access_bytes & 0xffff)) |
                       (static_cast<std::uint32_t>(off(v.access_bytes >> 16)) << 16);
    }
    if (IsLoadFused(v.op)) {
      v.target = static_cast<std::uint32_t>(off(v.target & 0xffff)) |
                 (static_cast<std::uint32_t>(off(v.target >> 16)) << 16);
    }
  }

  // Registers an item may read before writing them start at zero, like
  // the oracle's zeroed register file; only these are zeroed per item. A
  // write covers the reads after it up to the end of its block (the loop
  // body, then- or else-part it sits in, or the program), so a register
  // needs zeroing when some read comes first or lies past every block that
  // an earlier write of it covers.
  {
    std::vector<char> seen(num_src_regs, 0);
    std::vector<char> needs_zero(num_src_regs, 0);
    std::vector<std::uint32_t> covered_to(num_src_regs, 0);
    std::vector<std::uint32_t> block_end = {n};
    for (std::uint32_t i = 0; i < n; ++i) {
      const Instr& in = program.code[i];
      auto read = [&](RegId r) {
        if (r != kNoReg && (!seen[r] || i > covered_to[r])) needs_zero[r] = 1;
      };
      read(in.a);
      read(in.b);
      read(in.c);
      if (in.op == Opcode::kLoopEnd) {
        read(program.code[in.match].dst);
        read(program.code[in.match].b);
      }
      if (in.dst != kNoReg) {
        covered_to[in.dst] =
            seen[in.dst] ? std::max(covered_to[in.dst], block_end.back())
                         : block_end.back();
        seen[in.dst] = 1;
      }
      switch (in.op) {
        case Opcode::kLoopBegin:
          block_end.push_back(in.match);
          break;
        case Opcode::kIfBegin:
          // The then-part ends at the else, if any, else at the if-end.
          block_end.push_back(in.match);
          break;
        case Opcode::kElse:
          block_end.back() = in.match;
          break;
        case Opcode::kLoopEnd:
        case Opcode::kIfEnd:
          block_end.pop_back();
          break;
        default:
          break;
      }
    }
    for (std::size_t r = 1; r < num_src_regs; ++r) {
      if (needs_zero[r] && used[r]) {
        cp->zero_regs.push_back(
            {off(static_cast<std::uint32_t>(r)),
             static_cast<std::uint16_t>(program.regs[r].type.bytes())});
      }
    }
  }

  // ParallelFor live-ins: the registers a body reads and never writes (by
  // the contract, everything else it reads it wrote first).
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!par_loop[i]) continue;
    const Instr& loop = program.code[i];
    const VInstr& begin = cp->code[vpc_of[i]];
    ParLoop& pl = cp->par_loops[begin.access_bytes];
    pl.end_vpc = vpc_of[loop.match];
    std::vector<char> written(num_src_regs, 0);
    std::vector<char> read(num_src_regs, 0);
    written[loop.dst] = 1;
    for (std::uint32_t j = i + 1; j < loop.match; ++j) {
      const Instr& in = program.code[j];
      written[in.dst] = 1;
      read[in.a] = read[in.b] = read[in.c] = 1;
      if (in.op == Opcode::kLoopEnd) {
        read[program.code[in.match].dst] = read[program.code[in.match].b] = 1;
      }
    }
    pl.live_begin = static_cast<std::uint32_t>(cp->par_live_in.size());
    for (std::size_t r = 1; r < num_src_regs; ++r) {
      if (read[r] && !written[r] && used[r]) {
        cp->par_live_in.push_back(
            {off(static_cast<std::uint32_t>(r)),
             static_cast<std::uint16_t>(program.regs[r].type.bytes())});
      }
    }
    pl.live_end = static_cast<std::uint32_t>(cp->par_live_in.size());
  }

  return std::shared_ptr<const CompiledProgram>(std::move(cp));
}

}  // namespace malisim::kir::vm
