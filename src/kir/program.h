// KIR program representation.
//
// A Program is the IR form of one OpenCL kernel: a flat instruction list
// with structured control flow (matched loop/if markers), a typed virtual
// register file, and declarations for its arguments (buffers and scalars)
// and __local scratch arrays. Programs are built with KernelBuilder,
// checked by Verify(), and executed by the interpreter in interp.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "kir/opcode.h"
#include "kir/types.h"

namespace malisim::kir {

/// Register id. Register 0 is reserved as "none".
using RegId = std::uint16_t;
inline constexpr RegId kNoReg = 0;

/// One decoded instruction. Fixed-size for interpreter locality.
struct Instr {
  Opcode op = Opcode::kMov;
  Type type;              // type of dst (or of the stored value for kStore)
  RegId dst = kNoReg;
  RegId a = kNoReg;
  RegId b = kNoReg;
  RegId c = kNoReg;
  std::uint8_t slot = 0;  // memory object slot for load/store/atomic
  /// kLoopBegin only: a ParallelFor loop, whose iterations are independent
  /// (VerifyParallelLoop), so the VM may run several of them in lockstep.
  /// Same source instructions and the same semantics as a plain loop.
  bool parallel = false;
  std::int64_t imm = 0;   // element offset / lane index / dim / step / arg slot
  double fimm = 0.0;      // kConstF immediate
  // Filled in by Program::Finalize():
  std::uint32_t match = 0;  // matching control instruction index
};

enum class ArgKind : std::uint8_t { kBufferRO, kBufferWO, kBufferRW, kScalar };

struct ArgDecl {
  std::string name;
  ArgKind kind = ArgKind::kBufferRW;
  ScalarType elem = ScalarType::kF32;  // element type (buffers) / value type
  bool is_restrict = false;  // kernel author's promise: no aliasing (paper §III-B)
  bool is_const = false;     // const qualifier on the pointed-to data
};

/// __local array declaration; one allocation per work-group at launch.
struct LocalArrayDecl {
  std::string name;
  ScalarType elem = ScalarType::kF32;
  std::uint32_t elems = 0;
};

struct RegInfo {
  Type type;
  std::string name;  // for disassembly; may be empty
};

class Program {
 public:
  std::string name;
  std::vector<ArgDecl> args;
  std::vector<LocalArrayDecl> locals;
  std::vector<RegInfo> regs;  // index 0 is the reserved null register
  std::vector<Instr> code;

  Program() { regs.push_back({Type{}, "<none>"}); }

  std::uint32_t num_args() const { return static_cast<std::uint32_t>(args.size()); }
  std::uint32_t num_buffer_args() const;
  /// Memory object slots: buffer args first, then local arrays.
  std::uint32_t num_slots() const {
    return num_buffer_args() + static_cast<std::uint32_t>(locals.size());
  }

  bool finalized() const { return finalized_; }
  bool has_barrier() const { return has_barrier_; }
  /// Per-work-item bytes of live register state, the input to the Mali
  /// occupancy / CL_OUT_OF_RESOURCES model (sum over declared registers).
  std::uint32_t register_bytes() const { return register_bytes_; }

  /// Resolves structured control flow (loop/if match indices), computes
  /// register footprint and barrier presence. Must be called once after
  /// construction and again after any pass that rewrites code.
  Status Finalize();

 private:
  bool finalized_ = false;
  bool has_barrier_ = false;
  std::uint32_t register_bytes_ = 0;
};

/// Structural and type validation; returns the first violation found.
/// Includes VerifyParallelLoop for every ParallelFor loop.
Status Verify(const Program& program);

/// The ParallelFor contract for the loop opened at `loop_begin` (a
/// finalized kLoopBegin): its body holds no barrier, never writes the loop
/// variable or bound, reads no register that an earlier iteration wrote
/// (every register the body writes is written on the path before the body
/// reads it), and nothing that runs after the loop — code past its end, or
/// earlier code inside an enclosing loop — reads a register the loop
/// writes. Under it, running the iterations in any interleaving leaves
/// every register a later instruction reads as the sequential loop would.
Status VerifyParallelLoop(const Program& program, std::uint32_t loop_begin);

/// Disassembly listing for debugging and golden tests.
std::string ToText(const Program& program);

}  // namespace malisim::kir
