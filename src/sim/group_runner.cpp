#include "sim/group_runner.h"

#include <algorithm>
#include <chrono>
#include <span>

#include "kir/vm/vm.h"
#include "obs/host_prof.h"

namespace malisim::sim {
namespace {

/// A slice [begin, end) of one core's schedule, executed by one executor.
struct Task {
  std::uint32_t core = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// One task per core on one host thread; otherwise about four per host
/// thread, so the pool stays busy while replay trails behind.
std::vector<Task> SplitTasks(const std::vector<CoreSchedule>& cores,
                             int host_threads) {
  const std::uint64_t n = cores.size();
  const std::uint64_t per_core =
      host_threads <= 1
          ? 1
          : std::max<std::uint64_t>(
                1, (4 * static_cast<std::uint64_t>(host_threads) + n - 1) / n);
  std::vector<Task> tasks;
  for (std::uint32_t c = 0; c < n; ++c) {
    const std::uint64_t count = cores[c].count;
    const std::uint64_t chunks =
        std::min(per_core, std::max<std::uint64_t>(count, 1));
    for (std::uint64_t k = 0; k < chunks; ++k) {
      tasks.push_back({c, count * k / chunks, count * (k + 1) / chunks});
    }
  }
  return tasks;
}

bool HasAtomics(const kir::Program& program) {
  return std::any_of(program.code.begin(), program.code.end(),
                     [](const kir::Instr& in) {
                       return in.op == kir::Opcode::kAtomicAddI32;
                     });
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StatusOr<GroupRunResult> GroupRunner::Run(const GroupLaunch& launch,
                                          const SimOptions& options) {
  MALI_CHECK(launch.program != nullptr && launch.config != nullptr &&
             launch.bindings != nullptr && launch.hierarchy != nullptr);
  const kir::Program& program = *launch.program;
  std::shared_ptr<const kir::vm::CompiledProgram> bytecode = launch.bytecode;
  if (bytecode == nullptr) {
    // Once per launch, shared by every task.
    obs::HostProf::PhaseSpan vm_span(launch.host_prof,
                                     obs::HostPhase::kVmCompile);
    StatusOr<std::shared_ptr<const kir::vm::CompiledProgram>> compiled =
        kir::vm::CompileProgram(program);
    if (!compiled.ok()) return compiled.status();
    bytecode = *std::move(compiled);
  }
  // The program's __local arrays, plus slack past the end.
  std::uint64_t scratch_bytes = 64;
  for (const kir::LocalArrayDecl& local : program.locals) {
    scratch_bytes += static_cast<std::uint64_t>(local.elems) *
                     kir::ScalarBytes(local.elem);
  }
  const kir::LaunchConfig& config = *launch.config;
  const auto dims = config.num_groups();
  const int host_threads = options.ResolvedThreads();
  const bool serial = host_threads <= 1;
  const std::vector<Task> tasks = SplitTasks(launch.cores, host_threads);
  const bool count_atomics = launch.contended_below != 0 && HasAtomics(program);

  GroupRunResult result;
  result.cores.resize(launch.cores.size());
  obs::InterpProfile interp_prof(launch.host_prof, program,
                                 static_cast<int>(launch.cores.size()));

  // Replays one chunk of core `core`'s stream; always on the calling thread.
  auto replay = [&](std::uint32_t core, std::span<const kir::MemEvent> events) {
    obs::HostProf::PhaseSpan span(launch.host_prof,
                                  obs::HostPhase::kMemReplay);
    ReplayCounts counts;
    launch.hierarchy->Replay(core, events, &counts);
    result.cores[core].l1_misses += counts.l1_misses;
    result.cores[core].l2_misses += counts.l2_misses;
    if (!count_atomics) return;
    for (const kir::MemEvent& e : events) {
      if (e.kind == kir::MemEvent::kAtomic && e.addr < launch.contended_below) {
        ++result.atomic_lines[e.addr / 64];
      }
    }
  };

  std::vector<kir::WorkGroupRun> task_runs(tasks.size());
  std::vector<std::vector<kir::MemEvent>> task_events(serial ? 0 : tasks.size());
  // Integer tallies commute, so workers fill private ones race-free and
  // replay merges them per core.
  std::vector<std::array<std::uint64_t, kir::kNumOpcodeValues>> task_tallies(
      launch.opcode_tally ? tasks.size() : 0);

  auto run_task = [&](std::size_t i) -> Status {
    const Task& task = tasks[i];
    const CoreSchedule& schedule = launch.cores[task.core];
    std::vector<std::byte> scratch(scratch_bytes, std::byte{0});
    kir::Bindings bindings = *launch.bindings;
    bindings.local_scratch = {
        scratch.data(),
        launch.scratch_base + task.core * launch.scratch_stride,
        scratch_bytes};
    StatusOr<kir::vm::VmExecutor> executor = kir::vm::VmExecutor::Create(
        &program, bytecode, config, std::move(bindings));
    if (!executor.ok()) return executor.status();
    if (launch.opcode_tally) executor->set_opcode_tally(task_tallies[i].data());
    // Opcode sampling runs on the serial path only: pool workers would
    // race on the per-core sinks.
    kir::HostTimeSink* sampler = serial ? interp_prof.sink(task.core) : nullptr;
    executor->set_host_time(sampler);

    kir::MemRecorder recorder(
        serial ? kir::MemRecorder::Consumer(
                     [&](std::span<const kir::MemEvent> chunk) {
                       const std::uint64_t t0 = sampler != nullptr ? NowNs() : 0;
                       replay(task.core, chunk);
                       // Keep replay time out of the sampled opcode windows:
                       // it is charged to mem/replay instead.
                       if (sampler != nullptr) sampler->last_ns += NowNs() - t0;
                     })
               : kir::MemRecorder::Consumer(
                     [&](std::span<const kir::MemEvent> chunk) {
                       task_events[i].insert(task_events[i].end(),
                                             chunk.begin(), chunk.end());
                     }));
    Status status = Status::Ok();
    for (std::uint64_t k = task.begin; k < task.end && status.ok(); ++k) {
      const std::uint64_t g = schedule.first + k * schedule.stride;
      status = executor->RunGroup(
          {g % dims[0], (g / dims[0]) % dims[1], g / (dims[0] * dims[1])},
          &recorder, &task_runs[i]);
    }
    // A faulted task flushes too, so on one thread the hierarchy holds
    // exactly the accesses made before the fault.
    recorder.Flush();
    return status;
  };

  auto replay_task = [&](std::size_t i) -> Status {
    const Task& task = tasks[i];
    if (!serial) {
      replay(task.core, task_events[i]);
      task_events[i] = {};  // release buffered state as the cursor passes
    }
    CoreResult& core = result.cores[task.core];
    core.run.MergeFrom(task_runs[i]);
    core.groups += task.end - task.begin;
    if (launch.opcode_tally) {
      for (std::size_t op = 0; op < core.opcode_tally.size(); ++op) {
        core.opcode_tally[op] += task_tallies[i][op];
      }
    }
    return Status::Ok();
  };

  {
    obs::HostProf::PhaseSpan execute_span(launch.host_prof,
                                          obs::HostPhase::kExecute);
    // Spans are per-thread: vm/exec nests here only when the VM runs on
    // this thread.
    obs::HostProf::PhaseSpan vm_exec_span(serial ? launch.host_prof : nullptr,
                                          obs::HostPhase::kVmExec);
    if (!serial &&
        (pool_ == nullptr || pool_->num_workers() != host_threads)) {
      pool_ = std::make_unique<ThreadPool>(host_threads);
    }
    MALI_RETURN_IF_ERROR(RunOrderedPipeline(
        serial ? nullptr : pool_.get(), tasks.size(),
        static_cast<std::size_t>(options.ResolvedWindow()), run_task,
        replay_task));
  }
  interp_prof.Merge(program.name);
  return result;
}

}  // namespace malisim::sim
