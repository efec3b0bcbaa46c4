// Work-group execution shared by the device models: the one path from a
// launch's work-groups to per-core functional counts and cache misses.
//
// Each modelled core owns an ordered list of work-groups (its schedule).
// The runner executes them on the KIR VM, records their memory
// accesses in bounded chunks (kir::MemRecorder) and replays every chunk
// into the shared MemoryHierarchy in canonical order — core 0's groups in
// schedule order, then core 1's, and so on — so the order-dependent cache
// state, and everything derived from it, is the same for any host thread
// count (DESIGN.md §6.5):
//
//  * threads = 1: a chunk replays as soon as it fills. It is already in
//    canonical order, so one chunk is all the buffering there is.
//  * threads > 1: each core's schedule is split into tasks that execute
//    concurrently on a pool; a task's chunks queue on the task until
//    RunOrderedPipeline replays it, in task order, on the calling thread.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/sim_options.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "kir/exec_types.h"
#include "kir/program.h"
#include "sim/memory_system.h"

namespace malisim::kir::vm {
struct CompiledProgram;
}  // namespace malisim::kir::vm

namespace malisim::obs {
class HostProf;
}  // namespace malisim::obs

namespace malisim::sim {

/// One modelled core's share of a launch: the row-major linear group
/// indices first, first + stride, ... (`count` of them), in execution order.
struct CoreSchedule {
  std::uint64_t first = 0;
  std::uint64_t stride = 1;
  std::uint64_t count = 0;
};

/// What a launch did on one modelled core.
struct CoreResult {
  kir::WorkGroupRun run;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t groups = 0;
  /// Per-opcode dynamic counts; filled only when the launch asks for them.
  std::array<std::uint64_t, kir::kNumOpcodeValues> opcode_tally{};
};

/// One launch, as a device model describes it to the runner.
struct GroupLaunch {
  const kir::Program* program = nullptr;
  /// A VM compilation of `program` to share (e.g. from the Mali compile
  /// cache); when null the runner compiles one.
  std::shared_ptr<const kir::vm::CompiledProgram> bytecode;
  const kir::LaunchConfig* config = nullptr;
  const kir::Bindings* bindings = nullptr;
  MemoryHierarchy* hierarchy = nullptr;
  /// The device's group -> core schedule, one entry per modelled core.
  std::vector<CoreSchedule> cores;
  /// __local backing: every task gets the program's local arrays, zeroed,
  /// at the simulated address scratch_base + core * scratch_stride.
  std::uint64_t scratch_base = 0;
  std::uint64_t scratch_stride = 0;
  bool opcode_tally = false;
  /// Phase spans (vm/compile, execute, vm/exec, mem/replay) and VM opcode
  /// sampling.
  obs::HostProf* host_prof = nullptr;
  /// When non-zero, atomics below this address are counted per 64-byte
  /// line into GroupRunResult::atomic_lines (the Mali contention model).
  std::uint64_t contended_below = 0;
};

struct GroupRunResult {
  std::vector<CoreResult> cores;  // one per GroupLaunch::cores entry
  std::unordered_map<std::uint64_t, std::uint64_t> atomic_lines;
};

class GroupRunner {
 public:
  /// Runs `launch` on options.ResolvedThreads() host threads. Modelled
  /// results never depend on the thread count.
  StatusOr<GroupRunResult> Run(const GroupLaunch& launch,
                               const SimOptions& options);

 private:
  std::unique_ptr<ThreadPool> pool_;  // kept across launches
};

}  // namespace malisim::sim
