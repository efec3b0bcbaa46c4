// Running KIR kernels functionally.
//
// The bytecode VM (vm/vm.h) is the one execution engine: it runs a kernel
// with real data and full OpenCL NDRange semantics, including work-group
// barriers, records the simulated memory addresses into a bounded
// MemRecorder and tallies executed operations into an OpHistogram. The
// device models drive it through sim::GroupRunner. This header holds what
// the VM shares with its callers and profilers (launch validation, the
// host-time sampler, basic blocks) and the whole-NDRange helpers that tests,
// examples and probes use. The reference tree-walk interpreter that pins the
// VM's semantics is a test-only oracle (tests/kir/reference_interp.h).
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "kir/exec_types.h"
#include "kir/program.h"

namespace malisim::kir {

/// Why a VM lane batch rolled back and re-ran its lanes one at a time
/// (DESIGN.md §16).
enum class Rollback : int {
  kRace = 0,   // a lane touched bytes another lane stored to
  kFault,      // a lane faulted (the one-at-a-time re-run reports it)
  kEventCap,   // a lane's event buffer filled
  kSplit,      // lanes reached a barrier apart, or diverged too deeply
  kNumReasons,
};

inline constexpr int kNumRollbackReasons =
    static_cast<int>(Rollback::kNumReasons);

/// How much of a run the VM executed in lane batches. Host-side
/// observability only: it never feeds a modelled number.
struct BatchStats {
  std::uint64_t lane_instructions = 0;  // bytecode instructions x lanes
  std::uint64_t full_width = 0;  // ... of those, run with every lane of a
                                 // full batch active
  std::uint64_t rollbacks[kNumRollbackReasons] = {};

  void MergeFrom(const BatchStats& other) {
    lane_instructions += other.lane_instructions;
    full_width += other.full_width;
    for (int r = 0; r < kNumRollbackReasons; ++r) {
      rollbacks[r] += other.rollbacks[r];
    }
  }
};

/// Host-wall-time attribution sink for the self-profiler (obs::HostProf).
/// Same layering idiom as the opcode tally: a POD of raw pointers so kir
/// stays free of obs types, null by default so the hot loop pays one
/// perfectly predicted branch. The executor ticks a countdown every step;
/// when it hits zero it reads the steady clock once and attributes the
/// whole window since the previous tick to the opcode / basic block that
/// was executing at the *previous* tick (classic sampling-profiler
/// semantics; exact when period == 1). Nanosecond sums are commutative,
/// so parallel engines may hand each worker a private sink and merge.
struct HostTimeSink {
  std::uint64_t* op_ns = nullptr;     // kNumOpcodeValues slots, += window ns
  std::uint64_t* block_ns = nullptr;  // one slot per basic block (optional)
  const std::uint16_t* block_of_pc = nullptr;  // pc -> block index map
  std::uint32_t period = 256;  // steps per clock read; 1 = exact tally
  std::uint32_t countdown = 1;  // steps until next tick (primed at 1)
  std::uint64_t last_ns = 0;    // steady-clock ns at the previous tick
  std::int32_t last_pc = -1;    // pc captured at the previous tick
  std::uint64_t samples = 0;    // clock reads taken (self-cost estimate)
  std::uint64_t steps = 0;      // steps covered by attributed windows
  BatchStats batches;           // the VM adds its batch counts per group
};

/// Cold path of the host-time sampler: reads the clock, attributes the
/// elapsed window to the *source* op/block live at the previous tick,
/// re-arms the countdown. `pc` is a source-program pc (the VM maps fused
/// instructions back through its side table), so attribution is in terms
/// of the KIR program, not the bytecode.
void HostTimeSinkTick(HostTimeSink* s, const Program& program,
                      std::uint32_t pc);

/// One maximal straight-line span of instructions: [begin, end). Control
/// opcodes (barrier, loop/if bookkeeping) are singleton blocks; everything
/// between two control points is one block. Pure function of the program,
/// so profilers and the bytecode compiler agree on block identity.
struct BlockSpan {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;  // exclusive
};

std::vector<BlockSpan> BasicBlocks(const Program& program);

/// Validates launch geometry and bindings against the program's
/// declarations (the front half of vm::VmExecutor::Create).
Status ValidateLaunch(const Program& program, const LaunchConfig& config,
                      const Bindings& bindings);

/// Convenience for tests and examples: compile and run the whole NDRange
/// on the VM, dropping the memory-access stream, and return the aggregate
/// operation counts.
StatusOr<WorkGroupRun> RunProgram(const Program& program, LaunchConfig config,
                                  Bindings bindings);

/// Like RunProgram but farms contiguous work-group chunks across `threads`
/// pool workers, each with a private executor (and private __local backing
/// when the program declares locals), merging counts in canonical chunk
/// order. The program is compiled once and shared by every chunk. For
/// well-formed kernels the result is bit-identical to RunProgram; the fuzz
/// suite exercises exactly that contract.
StatusOr<WorkGroupRun> RunProgramParallel(const Program& program,
                                          LaunchConfig config,
                                          const Bindings& bindings,
                                          int threads);

}  // namespace malisim::kir
