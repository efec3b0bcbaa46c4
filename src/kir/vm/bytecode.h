// KIR bytecode: the compile-once, run-many execution format (DESIGN.md §16).
//
// A verified kir::Program is lowered once by CompileProgram() into a flat
// stream of pre-decoded VInstrs — operands resolved to offsets in a compact
// register frame (each register sized from its type), scalar types burned
// into the opcode (no per-step type switch), structured control flow
// (loop/if markers) resolved to absolute branch targets and reconvergence
// points, hot adjacent pairs fused into superinstructions (compare+branch,
// trailing-move absorption, reduction back-edges, load+consumer), and
// load/store element sizes strength-reduced to shifts.
// The VmExecutor in vm.h then dispatches the stream once per instruction
// for a batch of lanes: work-items of one work-group, or iterations of a
// ParallelFor loop.
//
// Accounting contract: the bytecode never loses source-level identity.
// Every VInstr carries side tables mapping it back to the source program —
// `src_pc` (the source instruction index, used by the HostTimeSink sampling
// profiler so per-opcode/per-block attribution stays in source terms) and a
// `tally_begin`/`tally_slots` span listing the source opcodes and histogram
// indices the VInstr stands for (one entry normally, one per fused source
// instruction otherwise). Executing bytecode therefore produces bit-identical
// OpHistograms, per-opcode tallies, step weights and memory-access streams
// to the reference interpreter; the `ctest -L kirvm` differential suite
// pins exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "kir/opcode.h"
#include "kir/program.h"
#include "kir/types.h"

namespace malisim::kir::vm {

/// Expands to the four per-scalar-type variants of one bytecode op, in
/// ScalarType order (kF32, kF64, kI32, kI64) so dispatch selection is
/// `base + static_cast<int>(scalar)`.
#define MALISIM_VM_TYPED4(name) name##F32, name##F64, name##I32, name##I64

/// Bytecode opcodes. Typed groups are laid out consecutively so the
/// compiler selects a variant with integer arithmetic:
///  - 4-type groups (MALISIM_VM_TYPED4): base + ScalarType
///  - float pairs  (…F32, …F64):        base + (scalar == kF64)
///  - int pairs    (…I32, …I64):        base + (scalar == kI64)
enum class VOp : std::uint8_t {
  kNop = 0,  // source kIfEnd: counted, no effect
  kConst,    // dst <- const_pool[target], access_bytes wide (kConstI/kConstF)
  kCtx,      // dst.i32[0] <- work-item ctx word [imm]; 0-2 global, 3-5 local,
             // 6-8 group id
  kLaunch,   // dst.i32[0] <- launch word [imm]; 0-2 global size, 3-5 local
             // size, 6-8 num groups
  kMov,      // dst <- a (access_bytes = the register's bytes)
  kCvt,      // dst <- convert(a); aux8 = (from_scalar << 2) | to_scalar
  MALISIM_VM_TYPED4(kArg),  // dst lane 0 <- scalar arg [imm]
  MALISIM_VM_TYPED4(kAdd),
  MALISIM_VM_TYPED4(kSub),
  MALISIM_VM_TYPED4(kMul),
  MALISIM_VM_TYPED4(kDiv),  // integer variants fault on zero divisors
  kIDivI32, kIDivI64,
  kIRemI32, kIRemI64,
  MALISIM_VM_TYPED4(kMin),  // fmin/fmax on floats, std::min/max on ints
  MALISIM_VM_TYPED4(kMax),
  kFmaF32, kFmaF64,
  MALISIM_VM_TYPED4(kNeg),
  MALISIM_VM_TYPED4(kAbs),
  kFloorF32, kFloorF64,
  kSqrtF32, kSqrtF64,
  kRsqrtF32, kRsqrtF64,
  kExpF32, kExpF64,
  kLogF32, kLogF64,
  kSinF32, kSinF64,
  kCosF32, kCosF64,
  kAndI32, kAndI64,
  kOrI32, kOrI64,
  kXorI32, kXorI64,
  kNotI32, kNotI64,
  kShlI32, kShlI64,  // shift amount in imm, via unsigned intermediates
  kShrI32, kShrI64,
  // Lane-wise compares producing an i32 mask; the type suffix is the
  // *source* operand type (the interp's MALI_CMP_ALL_TYPES contract).
  MALISIM_VM_TYPED4(kCmpLt),
  MALISIM_VM_TYPED4(kCmpLe),
  MALISIM_VM_TYPED4(kCmpEq),
  MALISIM_VM_TYPED4(kCmpNe),
  // Fused scalar compare + kIfBegin: branch to `target` when the condition
  // is FALSE. Counts as two source instructions (see TallySlot / weight).
  // imm is the if's reconvergence vpc: its kIfEnd when it has an else,
  // otherwise `target`.
  MALISIM_VM_TYPED4(kCmpBrLt),
  MALISIM_VM_TYPED4(kCmpBrLe),
  MALISIM_VM_TYPED4(kCmpBrEq),
  MALISIM_VM_TYPED4(kCmpBrNe),
  MALISIM_VM_TYPED4(kSelect),   // dst[l] = a.i32[l] ? b[l] : c[l]
  MALISIM_VM_TYPED4(kSplat),    // dst[l] = a[0]
  MALISIM_VM_TYPED4(kExtract),  // dst[0] = a[imm]; aux8 = a's lanes
  MALISIM_VM_TYPED4(kInsert),   // dst = a; dst[imm] = b[0]
  MALISIM_VM_TYPED4(kSlide),    // dst[l] = concat(a, b)[l + imm]
  MALISIM_VM_TYPED4(kVSum),     // dst[0] = sum over aux8 source lanes of a
  kLoad,          // dst <- slot[a.i32[0] + imm]; offset = elem << aux8
  kStore,         // slot[b.i32[0] + imm] <- a
  kAtomicAddI32,  // slot[b.i32[0] + imm] +=atomic a.i32[0]
  kBarrier,       // phase boundary; zero step weight (interp parity)
  kLoopBegin,     // dst.i32[0] = a.i32[0]; if >= b.i32[0] jump target
  kLoopEnd,       // dst.i32[0] += imm; if < b.i32[0] jump target (dst/b/imm
                  // copied from the matching kLoopBegin at compile time)
  // A ParallelFor loop's markers: kLoopBegin/kLoopEnd semantics, plus
  // access_bytes = index into CompiledProgram::par_loops on the begin. A
  // one-lane run executes the loop's iterations as lane batches; inside a
  // batch they are plain loop markers. Never fused.
  kParLoopBegin,
  kParLoopEnd,
  kJump,          // unconditional jump to target (source kElse)
  kBrZero,        // if a.i32[0] == 0 jump target (unfused kIfBegin); imm is
                  // the if's reconvergence vpc, as for kCmpBr*
  // Fused reduction back-edge: the arithmetic op (dst/a/b/c as usual),
  // then the matching kLoopEnd's counter step and conditional jump. The
  // loop counter and bound registers are packed into access_bytes
  // (counter | bound << 16); imm is the counter step, target the back-edge.
  kFmaLoopEndF32, kFmaLoopEndF64,
  kAddLoopEndF32, kAddLoopEndF64,
  // Fused load + consumer: the load executes first exactly like kLoad
  // (slot/aux8/imm/access_bytes; index register and destination packed
  // into target as idx | dst << 16), writing its destination register,
  // then the consumer (dst/a/b/c as usual) runs reading the register
  // file — so it sees the loaded value no matter which operand slot(s)
  // reference it.
  kLoadFmaF32, kLoadFmaF64,
  kLoadAddF32, kLoadAddF64,
  kLoadSubF32, kLoadSubF64,
  kLoadMulF32, kLoadMulF64,
  kLoadSplatF32, kLoadSplatF64,
  // The whole tail of a dense reduction body in one dispatch: load, fma,
  // (absorbed move,) counter step and conditional back-edge. Load side as
  // the kLoad* group above (idx | dst << 16 in target; byte count
  // recomputed as lanes << aux8 since the load and fma widths match);
  // back-edge side as the k*LoopEnd group (counter | bound << 16 in
  // access_bytes); imm packs the counter step (low half) and the branch
  // target vpc (high half). Only formed for zero-offset loads.
  kLoadFmaLoopEndF32, kLoadFmaLoopEndF64,
  kNumVOps,
};

#undef MALISIM_VM_TYPED4

/// A register operand: the register's offset in a one-lane frame, in
/// 4-byte units (0 is the unused-operand slot). A W-lane frame holds each
/// register as W consecutive one-lane values, so lane l of register u
/// starts at byte (u * 4 * W + l * bytes-of-the-register).
using RegOff = std::uint16_t;

/// One pre-decoded bytecode instruction. 32 bytes, fixed-size for dispatch
/// locality (same motivation as kir::Instr, minus the fields the compiler
/// already burned into `op`).
struct VInstr {
  VOp op = VOp::kNop;
  std::uint8_t lanes = 1;
  std::uint8_t slot = 0;  // memory slot index (load/store/atomic)
  std::uint8_t aux8 = 0;  // elem-size shift (mem) / src lanes (vsum,
                          // extract) / (from << 2) | to (cvt)
  RegOff dst = 0;
  RegOff a = 0;
  RegOff b = 0;
  RegOff c = 0;
  std::uint32_t target = 0;       // branch target vpc / const-pool index /
                                  // fused-load idx | dst << 16
  std::uint32_t access_bytes = 0; // lanes * elem bytes (mem ops, kConst) /
                                  // fused-back-edge counter | bound << 16
  std::uint8_t weight = 1;  // source steps per execution (== the weight
                            // side table; carried inline so the dispatch
                            // loop pays no extra cache line for it)
  std::int64_t imm = 0;  // elem offset / lane idx / shift / arg slot / step
};
static_assert(sizeof(VInstr) == 32, "VInstr should stay one half cache line");

/// One source instruction a VInstr stands for, in source execution order.
/// Expanding a VInstr execution count through its TallySlot span reproduces
/// the interpreter's OpHistogram and per-opcode tally exactly.
struct TallySlot {
  std::int32_t hist_idx = 0;  // OpHistogram::Index of the source instruction
  Opcode op = Opcode::kMov;   // source opcode (per-opcode tally key)
};

/// One register's place in a one-lane frame.
struct RegSpan {
  RegOff reg = 0;
  std::uint16_t bytes = 0;
};

/// One ParallelFor loop (a kParLoopBegin's access_bytes indexes these).
struct ParLoop {
  std::uint32_t end_vpc = 0;  // its kParLoopEnd
  std::uint32_t live_begin = 0;  // [live_begin, live_end) in par_live_in
  std::uint32_t live_end = 0;
};

/// The immutable result of CompileProgram(). Shareable across executors and
/// threads (and memoized by mali::CompileCache): nothing here is mutated by
/// execution.
struct CompiledProgram {
  std::string name;             // source program name (fault messages)
  std::uint32_t source_len = 0; // source code size; executors sanity-check
                                // the bytecode matches their program
  std::uint32_t frame_bytes = 0;  // one lane's register frame, a multiple
                                  // of 8; bytes [0, 8) are the unused slot
  std::uint32_t max_nesting = 0;  // deepest loop/if nesting
  bool has_barrier = false;

  std::vector<VInstr> code;
  std::vector<RegValue> const_pool;  // pre-broadcast kConstI/kConstF values

  // Side tables, indexed by vpc (see file comment).
  std::vector<std::uint32_t> src_pc;  // source pc (fused ops: the first)
  std::vector<std::uint8_t> weight;   // source steps per execution: one per
                                      // fused source instr, 0 for barriers
  std::vector<std::uint32_t> tally_begin;  // code.size()+1 offsets into
  std::vector<TallySlot> tally_slots;      // ...this flat span store

  std::vector<RegSpan> frame_regs;  // every register in the frame
  /// The registers an item may read before writing them: the only ones a
  /// new item's frame zeroes (the oracle zeroes every register).
  std::vector<RegSpan> zero_regs;
  std::vector<ParLoop> par_loops;
  /// Per ParallelFor loop, the registers its body reads but never writes:
  /// broadcast from the one-lane frame into every lane of a batch.
  std::vector<RegSpan> par_live_in;
};

/// Lowers a finalized program into bytecode. Pure function of the program:
/// the result may be cached under any key that pins the program's contents.
StatusOr<std::shared_ptr<const CompiledProgram>> CompileProgram(
    const Program& program);

}  // namespace malisim::kir::vm
