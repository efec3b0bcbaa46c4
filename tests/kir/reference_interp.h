// Reference tree-walk interpreter for KIR: the differential oracle behind
// `ctest -L kirvm`.
//
// It executes kir::Instr one at a time with the plainest possible semantics
// (same launch validation, NDRange walk and barrier phasing as the VM), so
// tests/kir/vm_diff_fuzz_test can pin the bytecode VM (src/kir/vm/) to it:
// buffers, operation histograms, opcode tallies, step weights, memory-access
// streams and fault status must all be bit-identical. Test-only; nothing in
// src/ runs it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "kir/exec_types.h"
#include "kir/program.h"

namespace malisim::kir {

class ReferenceInterp {
 public:
  /// Validates geometry and bindings against the program's declarations.
  /// The program must outlive the interpreter and must be finalized.
  static StatusOr<ReferenceInterp> Create(const Program* program,
                                          LaunchConfig config,
                                          Bindings bindings);

  /// Executes one work-group identified by its group coordinates. Results
  /// are *merged* into `out`; memory accesses go to `recorder` (null =
  /// dropped).
  Status RunGroup(const std::array<std::uint64_t, 3>& group_id,
                  MemRecorder* recorder, WorkGroupRun* out);

  /// Executes every work-group in row-major group order.
  Status RunAllGroups(MemRecorder* recorder, WorkGroupRun* out);

  /// Optional per-opcode dynamic-count tally: when set, every executed
  /// instruction increments `tally[opcode]`. `tally` must point at
  /// kNumOpcodeValues zero-initialized slots and outlive the interpreter.
  void set_opcode_tally(std::uint64_t* tally) { opcode_tally_ = tally; }

 private:
  struct Slot {
    std::byte* host = nullptr;
    std::uint64_t sim_addr = 0;
    std::uint64_t size_bytes = 0;
    std::uint32_t elem_bytes = 0;
  };

  /// Pre-decoded per-instruction execution metadata.
  struct Decoded {
    int hist_idx = 0;
    std::uint8_t lanes = 1;
    std::uint32_t access_bytes = 0;  // lanes * elem bytes for memory ops
  };

  struct ThreadCtx {
    std::int32_t global_id[3];
    std::int32_t local_id[3];
    std::int32_t group_id[3];
  };

  enum class StopReason { kDone, kBarrier };

  ReferenceInterp(const Program* program, LaunchConfig config,
                  Bindings bindings);

  Status RunStraight(const ThreadCtx& ctx, RegValue* regs,
                     MemRecorder* recorder, WorkGroupRun* out);
  /// Runs from *pc until completion or the next barrier.
  StatusOr<StopReason> RunToBarrier(const ThreadCtx& ctx, RegValue* regs,
                                    std::uint32_t* pc, MemRecorder* recorder,
                                    WorkGroupRun* out);
  /// Executes the single instruction at pc; advances pc. Returns non-OK on
  /// runtime faults (out-of-bounds access, integer division by zero or
  /// overflow).
  Status Step(const ThreadCtx& ctx, RegValue* regs, std::uint32_t* pc,
              MemRecorder* recorder, WorkGroupRun* out);

  const Program* p_;
  // Incremented once per executed instruction; RunGroup snapshots it around
  // each work-item to derive per-item weights for imbalance accounting.
  std::uint64_t steps_executed_ = 0;
  LaunchConfig config_;
  Bindings bindings_;
  std::vector<Slot> slots_;
  std::vector<Decoded> decoded_;
  std::uint32_t num_regs_ = 0;
  // Register arena reused across work-groups (wg_size * num_regs for the
  // barrier path, num_regs otherwise).
  std::vector<RegValue> reg_arena_;
  std::vector<std::uint32_t> barrier_pcs_;
  std::vector<ThreadCtx> barrier_ctxs_;
  std::vector<std::uint64_t> barrier_weights_;
  std::uint64_t* opcode_tally_ = nullptr;  // see set_opcode_tally
};

}  // namespace malisim::kir
