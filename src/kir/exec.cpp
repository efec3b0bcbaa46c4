// The parts of KIR execution that live outside the VM's dispatch loop:
// launch validation, the host-time sampler's cold path, basic blocks, and
// the RunProgram helpers (interp.h).
#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "kir/interp.h"
#include "kir/vm/vm.h"

namespace malisim::kir {

Status ValidateLaunch(const Program& program, const LaunchConfig& config,
                      const Bindings& bindings) {
  if (!program.finalized()) {
    return FailedPreconditionError("program not finalized: " + program.name);
  }
  if (!config.IsValid()) {
    return InvalidArgumentError(
        "invalid NDRange: global size must be a positive multiple of local "
        "size in every used dimension");
  }

  // Check bindings against declarations.
  std::uint32_t want_buffers = 0;
  std::uint32_t want_scalars = 0;
  for (const ArgDecl& arg : program.args) {
    if (arg.kind == ArgKind::kScalar) {
      ++want_scalars;
    } else {
      ++want_buffers;
    }
  }
  if (bindings.buffers.size() != want_buffers) {
    return InvalidArgumentError(
        "kernel '" + program.name + "' expects " +
        std::to_string(want_buffers) + " buffer args, got " +
        std::to_string(bindings.buffers.size()));
  }
  if (bindings.scalars.size() != want_scalars) {
    return InvalidArgumentError(
        "kernel '" + program.name + "' expects " +
        std::to_string(want_scalars) + " scalar args, got " +
        std::to_string(bindings.scalars.size()));
  }
  for (std::size_t i = 0; i < bindings.buffers.size(); ++i) {
    if (bindings.buffers[i].host == nullptr) {
      return InvalidArgumentError("buffer arg " + std::to_string(i) +
                                  " is unbound");
    }
  }
  std::uint64_t local_bytes = 0;
  for (const LocalArrayDecl& local : program.locals) {
    local_bytes += static_cast<std::uint64_t>(local.elems) * ScalarBytes(local.elem);
  }
  if (local_bytes > 0 && (bindings.local_scratch.host == nullptr ||
                          bindings.local_scratch.size_bytes < local_bytes)) {
    return InvalidArgumentError("local scratch too small for kernel '" +
                                program.name + "'");
  }
  // Scalar types must match.
  std::size_t scalar_idx = 0;
  for (const ArgDecl& arg : program.args) {
    if (arg.kind != ArgKind::kScalar) continue;
    if (bindings.scalars[scalar_idx].type != arg.elem) {
      return InvalidArgumentError("scalar arg '" + arg.name + "' type mismatch");
    }
    ++scalar_idx;
  }
  return Status::Ok();
}

void HostTimeSinkTick(HostTimeSink* s, const Program& program,
                      std::uint32_t pc) {
  s->countdown = s->period == 0 ? 1 : s->period;
  const std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  ++s->samples;
  if (s->last_pc >= 0) {
    // The window [last tick, now] is attributed to the instruction that
    // was live at the previous tick — standard sampling estimator, exact
    // when period == 1 (every step both opens and closes its own window).
    const std::uint64_t delta = now - s->last_ns;
    if (s->op_ns != nullptr) {
      const Opcode op = program.code[static_cast<std::size_t>(s->last_pc)].op;
      s->op_ns[static_cast<std::size_t>(op)] += delta;
    }
    if (s->block_ns != nullptr && s->block_of_pc != nullptr) {
      s->block_ns[s->block_of_pc[static_cast<std::size_t>(s->last_pc)]] +=
          delta;
    }
    s->steps += s->countdown;
  }
  s->last_pc = static_cast<std::int32_t>(pc);
  s->last_ns = now;
}

std::vector<BlockSpan> BasicBlocks(const Program& program) {
  const auto is_control = [](Opcode op) {
    switch (op) {
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
  };
  std::vector<BlockSpan> blocks;
  const std::uint32_t n = static_cast<std::uint32_t>(program.code.size());
  std::uint32_t i = 0;
  while (i < n) {
    if (is_control(program.code[i].op)) {
      blocks.push_back({i, i + 1});
      ++i;
      continue;
    }
    std::uint32_t end = i + 1;
    while (end < n && !is_control(program.code[end].op)) ++end;
    blocks.push_back({i, end});
    i = end;
  }
  return blocks;
}

StatusOr<WorkGroupRun> RunProgram(const Program& program, LaunchConfig config,
                                  Bindings bindings) {
  StatusOr<std::shared_ptr<const vm::CompiledProgram>> compiled =
      vm::CompileProgram(program);
  if (!compiled.ok()) return compiled.status();
  StatusOr<vm::VmExecutor> executor = vm::VmExecutor::Create(
      &program, *std::move(compiled), config, std::move(bindings));
  if (!executor.ok()) return executor.status();
  WorkGroupRun run;
  MALI_RETURN_IF_ERROR(executor->RunAllGroups(nullptr, &run));
  return run;
}

StatusOr<WorkGroupRun> RunProgramParallel(const Program& program,
                                          LaunchConfig config,
                                          const Bindings& bindings,
                                          int threads) {
  if (threads < 1) return InvalidArgumentError("threads must be >= 1");
  // Validate once up front so misuse fails identically to RunProgram, and
  // compile the bytecode once so every chunk shares it.
  MALI_RETURN_IF_ERROR(ValidateLaunch(program, config, bindings));
  StatusOr<std::shared_ptr<const vm::CompiledProgram>> compiled =
      vm::CompileProgram(program);
  if (!compiled.ok()) return compiled.status();
  const std::shared_ptr<const vm::CompiledProgram> bytecode =
      *std::move(compiled);

  const auto group_dims = config.num_groups();
  const std::uint64_t total_groups = config.total_groups();
  // Contiguous row-major chunks; each runs in a private executor. Chunk
  // boundaries never affect results: counts merge with integer addition
  // and the access streams are dropped.
  const std::uint64_t num_chunks =
      std::min<std::uint64_t>(total_groups,
                              static_cast<std::uint64_t>(threads) * 4);
  std::vector<WorkGroupRun> chunk_runs(num_chunks);
  std::vector<std::vector<std::byte>> chunk_scratch(num_chunks);

  ThreadPool pool(threads);
  auto run_chunk = [&](std::size_t i) -> Status {
    Bindings chunk_bindings = bindings;
    if (bindings.local_scratch.host != nullptr) {
      // Private __local backing per chunk (same simulated address), so
      // chunks never race on scratch contents.
      chunk_scratch[i].assign(bindings.local_scratch.size_bytes,
                              std::byte{0});
      chunk_bindings.local_scratch.host = chunk_scratch[i].data();
    }
    StatusOr<vm::VmExecutor> executor = vm::VmExecutor::Create(
        &program, bytecode, config, std::move(chunk_bindings));
    if (!executor.ok()) return executor.status();
    const std::uint64_t begin = total_groups * i / num_chunks;
    const std::uint64_t end = total_groups * (i + 1) / num_chunks;
    for (std::uint64_t g = begin; g < end; ++g) {
      const std::uint64_t gx = g % group_dims[0];
      const std::uint64_t gy = (g / group_dims[0]) % group_dims[1];
      const std::uint64_t gz = g / (group_dims[0] * group_dims[1]);
      MALI_RETURN_IF_ERROR(
          executor->RunGroup({gx, gy, gz}, nullptr, &chunk_runs[i]));
    }
    return Status::Ok();
  };

  WorkGroupRun run;
  MALI_RETURN_IF_ERROR(RunOrderedPipeline(
      &pool, num_chunks, num_chunks, run_chunk, [&](std::size_t i) {
        run.MergeFrom(chunk_runs[i]);
        chunk_runs[i] = WorkGroupRun();
        return Status::Ok();
      }));
  return run;
}

}  // namespace malisim::kir
