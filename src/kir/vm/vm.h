// Dispatch-loop executor for compiled KIR bytecode (bytecode.h): the one
// engine that runs KIR kernels. The device models drive it through
// sim::GroupRunner, and tests and examples through kir::RunProgram
// (interp.h).
//
// By the accounting contract in bytecode.h, its results, histograms,
// tallies, step weights, memory-access streams and faults are bit-identical
// to the plain tree-walk of kir::Instr kept as a test oracle
// (tests/kir/reference_interp.h, `ctest -L kirvm`). The speed comes from
// executing the pre-decoded stream with one dense switch per instruction,
// appending memory accesses to a bounded kir::MemRecorder chunk, and
// deferring all histogram/tally work to a per-instruction execution counter
// that is expanded through the compile-time side tables once per
// work-group.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "kir/exec_types.h"
#include "kir/interp.h"
#include "kir/program.h"
#include "kir/vm/bytecode.h"

namespace malisim::kir::vm {

class VmExecutor {
 public:
  /// Validates geometry and bindings against the program's declarations
  /// (ValidateLaunch), plus a sanity check that `code` was compiled from
  /// `program`. Both must outlive the executor; `code` is shared (it is
  /// immutable).
  static StatusOr<VmExecutor> Create(
      const Program* program, std::shared_ptr<const CompiledProgram> code,
      LaunchConfig config, Bindings bindings);

  /// Executes one work-group; merges results into `out` (callers aggregate
  /// across groups) and appends its memory accesses to `recorder` (null =
  /// drop them). Deferred per-instruction counts are flushed into `out` on
  /// every exit, including faults, so partial counts match the reference
  /// interpreter's.
  Status RunGroup(const std::array<std::uint64_t, 3>& group_id,
                  MemRecorder* recorder, WorkGroupRun* out);

  /// Executes every work-group in row-major group order.
  Status RunAllGroups(MemRecorder* recorder, WorkGroupRun* out);

  const LaunchConfig& config() const { return config_; }
  const CompiledProgram& compiled() const { return *code_; }

  /// Optional per-*source*-opcode dynamic-count tally: `tally` must point
  /// at kNumOpcodeValues zero-initialized slots and outlive the executor.
  /// Fused bytecode ops contribute to every source opcode they stand for.
  /// Integer tallies are commutative, so parallel callers can give each
  /// worker a private tally and merge in any order.
  void set_opcode_tally(std::uint64_t* tally) { opcode_tally_ = tally; }

  /// Optional host-time sampling hook (see HostTimeSink); the sink must
  /// outlive the executor. Attribution stays in source terms: ticks record
  /// the *source* pc of the live bytecode instruction, so per-opcode and
  /// per-basic-block profiles read in terms of the KIR program.
  void set_host_time(HostTimeSink* sink) { host_time_ = sink; }

 private:
  struct Slot {
    std::byte* host = nullptr;
    std::uint64_t sim_addr = 0;
    std::uint64_t size_bytes = 0;
  };

  /// Work-item context words, laid out to match VOp::kCtx immediates:
  /// [0..2] global id, [3..5] local id, [6..8] group id.
  struct ItemCtx {
    std::int32_t v[9];
  };

  enum class StopReason { kDone, kBarrier };

  VmExecutor(const Program* program,
             std::shared_ptr<const CompiledProgram> code, LaunchConfig config,
             Bindings bindings);

  ItemCtx MakeCtx(const std::array<std::uint64_t, 3>& group_id,
                  std::uint64_t t) const;

  Status RunGroupFast(const std::array<std::uint64_t, 3>& group_id,
                      MemRecorder* recorder, WorkGroupRun* out);
  Status RunGroupPhased(const std::array<std::uint64_t, 3>& group_id,
                        MemRecorder* recorder, WorkGroupRun* out);

  /// Runs one work-item from *pc until completion, fault, or barrier.
  StatusOr<StopReason> RunItem(const ItemCtx& ctx, RegValue* regs,
                               std::uint32_t* pc, MemRecorder* recorder,
                               WorkGroupRun* out);
  /// kProf gates the host-time countdown; kDiscard drops the access stream
  /// when there is no recorder (RunProgram's functional runs) — both are
  /// specialized out of the hot loop.
  template <bool kProf, bool kDiscard>
  StatusOr<StopReason> RunItemImpl(const ItemCtx& ctx, RegValue* regs,
                                   std::uint32_t* pc, MemRecorder* recorder,
                                   WorkGroupRun* out);

  /// Expands the deferred per-instruction execution counts through the
  /// tally side tables into the histogram and opcode tally, then zeroes
  /// them. Called on every RunGroup exit.
  void FlushCounts(WorkGroupRun* out);

  static constexpr std::uint32_t kNoFault = ~std::uint32_t{0};

  const Program* p_;
  std::shared_ptr<const CompiledProgram> code_;
  std::uint64_t steps_executed_ = 0;  // source-step weights (interp parity)
  /// vpc of the instruction that faulted, or kNoFault. FlushCounts backs
  /// out what the interpreter never counted: the faulted access's traffic,
  /// and the tally slots of fused source steps after the faulting first
  /// one (see FlushCounts).
  std::uint32_t fault_vpc_ = kNoFault;
  LaunchConfig config_;
  Bindings bindings_;
  std::vector<Slot> slots_;
  std::int32_t launch_v_[9];  // kLaunch words: global/local size, num groups
  std::uint32_t num_regs_ = 0;  // compacted register-file size
  std::vector<RegValue> reg_arena_;
  std::vector<std::uint64_t> vcount_;  // deferred per-vpc execution counts
  // Barrier-path scratch, hoisted to construction (one allocation per
  // executor instead of three per work-group).
  std::vector<std::uint32_t> barrier_pcs_;
  std::vector<ItemCtx> barrier_ctxs_;
  std::vector<std::uint64_t> barrier_weights_;
  std::uint64_t* opcode_tally_ = nullptr;
  HostTimeSink* host_time_ = nullptr;
};

}  // namespace malisim::kir::vm
