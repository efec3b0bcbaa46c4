// Dispatch-loop executor for compiled KIR bytecode (bytecode.h): the one
// engine that runs KIR kernels. The device models drive it through
// sim::GroupRunner, and tests and examples through kir::RunProgram
// (interp.h).
//
// By the accounting contract in bytecode.h, its results, histograms,
// tallies, step weights, memory-access streams and faults are bit-identical
// to the plain tree-walk of kir::Instr kept as a test oracle
// (tests/kir/reference_interp.h, `ctest -L kirvm`).
//
// Lane batches (DESIGN.md §16): one dispatch loop, templated on its width,
// executes each bytecode instruction once for up to kBatchWidth lanes —
// consecutive work-items of a work-group, or, in a one-lane run,
// consecutive iterations of a ParallelFor loop. Lanes that branch apart
// run under an active-lane mask and meet again at the if-end or loop-exit
// point. A batch is speculative: each lane's memory events wait in a
// per-lane buffer, stores log the bytes they replace and atomics log their
// addend. When the batch ends, or reaches a barrier in lockstep, it
// commits: the events go to the recorder in lane order, which is the
// oracle's order. A batch that faults, fills a lane's buffer, reaches a
// barrier with its lanes split, or has a lane touch bytes another lane
// stores to (atomics commute with atomics) rolls back instead and runs its
// lanes one at a time, so every program, racy and faulting ones included,
// behaves exactly as under the oracle.
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

/// Lanes per batch. Chosen by measurement on the full fp32 sweep (W = 8,
/// 16 and 32; DESIGN.md §16); not a run-time knob. At most 32, the width
/// of the lane masks.
inline constexpr int kBatchWidth = 16;

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
  /// the *source* pc of the instruction being dispatched (once per batch
  /// instruction), so per-opcode and per-basic-block profiles read in terms
  /// of the KIR program. Each group's batch counts are added to the sink's
  /// `batches`.
  void set_host_time(HostTimeSink* sink) { host_time_ = sink; }

 private:
  struct Slot {
    std::byte* host = nullptr;
    std::uint64_t sim_addr = 0;
    std::uint64_t size_bytes = 0;
  };

  using Mask = std::uint32_t;

  /// One memory access buffered by a batch lane until the batch commits,
  /// packed so that recording it is one store and committing it needs no
  /// table: the simulated address in the low kAddrBits bits, the byte count
  /// in the next 8, the MemEvent::Kind in the top 8.
  using LaneEvent = std::uint64_t;
  static constexpr int kAddrBits = 48;
  static constexpr std::uint64_t kAddrMask = (std::uint64_t{1} << kAddrBits) - 1;

  /// One logged store or atomic of a running batch, undone on rollback.
  struct Undo {
    std::uint64_t off;
    std::uint32_t data;  // store: offset of the old bytes in undo_bytes_
    std::int32_t value;  // atomic: the amount added
    std::uint16_t bytes;  // store width; 0 for an atomic
    std::uint8_t slot;
  };

  /// Where lanes that branched apart meet again: when the running lanes
  /// reach `pc`, the `pending` lanes (if any) run from `pending_pc`, and
  /// once they arrive too the `join` lanes continue together.
  struct Reconv {
    std::uint32_t pc;
    std::uint32_t pending_pc;
    Mask join;
    Mask pending;
  };

  /// A W-lane register frame and the lanes' work-item context words,
  /// laid out to match VOp::kCtx immediates: [0..2] global id, [3..5]
  /// local id, [6..8] group id, each W wide.
  template <int W>
  struct Lanes {
    std::byte* frame = nullptr;
    std::int32_t ctx[9][W];
    Mask live = 0;  // lanes that exist (a tail batch has fewer than W)
  };

  enum class Stop { kDone, kBarrier, kAbort };

  VmExecutor(const Program* program,
             std::shared_ptr<const CompiledProgram> code, LaunchConfig config,
             Bindings bindings);

  /// Context words of work-items first_item .. first_item + n - 1 into
  /// lanes 0 .. n - 1; the lanes past n repeat the last item.
  template <int W>
  void SetCtx(const std::array<std::uint64_t, 3>& group_id,
              std::uint64_t first_item, int n, Lanes<W>* lanes) const;
  /// Zeroes, in a frame of `width` lanes, the registers an item may read
  /// before writing them (CompiledProgram::zero_regs).
  void ZeroFrame(std::byte* frame, int width) const;

  Status RunGroupStraight(const std::array<std::uint64_t, 3>& group_id,
                          MemRecorder* recorder, WorkGroupRun* out);
  Status RunGroupPhased(const std::array<std::uint64_t, 3>& group_id,
                        MemRecorder* recorder, WorkGroupRun* out);

  /// The dispatch loop. Runs the lanes from *pc until they finish, reach a
  /// barrier, or reach `stop_vpc` (executing it). W == 1 runs one lane
  /// committed as it goes (faults return their status; ParallelFor loops
  /// go to RunParallelLoop). W > 1 runs a speculative batch: its counts,
  /// steps and events stay pending until Commit, and anything the
  /// one-lane run would have to report returns Stop::kAbort with
  /// abort_reason_ set (the caller then rolls back).
  template <int W, bool kProf>
  StatusOr<Stop> Run(Lanes<W>& lanes, std::uint32_t* pc,
                     std::uint32_t stop_vpc, MemRecorder* recorder);
  template <int W>
  StatusOr<Stop> Dispatch(Lanes<W>& lanes, std::uint32_t* pc,
                          std::uint32_t stop_vpc, MemRecorder* recorder);

  /// Runs the `trips` iterations of the ParallelFor loop opened at
  /// begin_vpc (its variable already holds the start value) from a
  /// one-lane frame, kBatchWidth at a time, leaving the variable as the
  /// sequential loop would.
  Status RunParallelLoop(Lanes<1>& one, std::uint32_t begin_vpc,
                         std::int64_t trips, MemRecorder* recorder);

  /// Starts a batch: clears its pending state.
  void BeginBatch();
  /// Logs a batch store's old bytes / an atomic's amount for RollBack.
  void LogStore(std::uint8_t slot, std::uint64_t off, std::uint32_t bytes);
  void LogAtomic(std::uint8_t slot, std::uint64_t off, std::int32_t value);
  /// Ends a batch that ran to a stop: checks it for cross-lane races, then
  /// either publishes it (events to `recorder` in lane order, counts, steps
  /// into lane_steps_) and returns true, or rolls it back and returns false.
  bool Commit(Mask live, MemRecorder* recorder);
  /// Undoes the batch's stores and atomics and drops its pending state.
  void RollBack(Rollback reason);
  /// True when some lane touches bytes another lane stored to, or reads
  /// bytes another lane atomically updated.
  bool HasRace(Mask live) const;

  /// Expands the deferred per-instruction execution counts through the
  /// tally side tables into the histogram and opcode tally, then zeroes
  /// them. Called on every RunGroup exit.
  void FlushCounts(WorkGroupRun* out);

  static constexpr std::uint32_t kNoFault = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoStop = ~std::uint32_t{0};
  /// Events one lane may buffer before its batch rolls back: fits a paper-
  /// size amcd chain (~14 k) with room to spare.
  static constexpr std::uint32_t kLaneEventCap = 1u << 14;
  /// Distance between two lanes' event buffers: the cap plus 576 bytes, so
  /// the lanes' write cursors fall in different L1 sets instead of one set
  /// 128 KiB apart.
  static constexpr std::size_t kLaneEventStride = kLaneEventCap + 72;

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
  std::uint32_t frame_bytes_ = 0;  // one lane's register frame
  /// False when the bindings rule batches out (more than 64 slots, one of
  /// 4 GiB or more or reaching past 2^kAddrBits in the simulated space, or
  /// two sharing host bytes): every lane then runs alone.
  bool batch_ok_ = true;
  std::vector<std::uint64_t> vcount_;  // deferred per-vpc execution counts

  // One-lane and batch register frames (the phased path keeps its own).
  std::vector<std::byte> frame1_;
  std::vector<std::byte> frameW_;
  std::vector<Reconv> reconv_;  // the batch's reconvergence stack

  // Pending state of the running batch.
  std::vector<std::uint64_t> bcount_;  // per-vpc counts, lanes summed
  std::array<std::uint64_t, kBatchWidth> lane_steps_{};
  std::uint64_t batch_full_ = 0;  // full-width dispatches
  /// Lane l's buffered events: [l * kLaneEventStride, + lane_event_n_[l]).
  /// Allocated untouched, so only the pages a batch fills count as memory.
  std::unique_ptr<LaneEvent[]> lane_events_;
  std::array<std::uint32_t, kBatchWidth> lane_event_n_{};
  /// Per slot the program stores to (track_of_[slot] != kUntracked), per
  /// lane and event kind, the byte range the batch touched: the race
  /// check's first, cheap pass. Slots nothing stores to cannot race.
  static constexpr std::uint8_t kUntracked = 0xff;
  std::vector<std::uint8_t> track_of_;  // per slot
  struct Range {
    std::uint32_t lo;
    std::uint32_t hi;
  };
  std::vector<Range> ranges_;  // [(track * kBatchWidth + lane) * 3 + kind]
  std::vector<Undo> undo_;
  std::vector<std::byte> undo_bytes_;
  std::uint64_t written_slots_ = 0;  // bit s: a store/atomic hit slot s
  Rollback abort_reason_ = Rollback::kFault;

  // Phased-path scratch, hoisted to construction.
  std::vector<std::byte> phase_frames_;   // one batch frame per batch
  std::vector<std::byte> item_frames_;    // one-lane frames, split batches
  std::vector<std::byte> snapshot_;       // a batch frame at phase start
  std::vector<std::uint32_t> phase_pcs_;  // per item
  std::vector<std::uint64_t> item_weights_;
  std::vector<char> split_;               // per batch

  BatchStats stats_;  // the running group's
  std::uint64_t* opcode_tally_ = nullptr;
  HostTimeSink* host_time_ = nullptr;
};

}  // namespace malisim::kir::vm
