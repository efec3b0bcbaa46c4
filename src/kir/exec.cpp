// The engine-selecting kir::Executor facade and the RunProgram helpers.
//
// Out of line (and out of interp.cpp) because this is the only translation
// unit in the library that needs both engines: the facade header only
// forward-declares the bytecode types.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "kir/interp.h"
#include "kir/vm/vm.h"

namespace malisim::kir {
namespace {

/// Bridges the interpreter's virtual sink to a recorder (null = drop).
class RecorderSink final : public MemorySink {
 public:
  explicit RecorderSink(MemRecorder* recorder) : recorder_(recorder) {}

  void OnAccess(std::uint64_t addr, std::uint32_t bytes,
                bool is_write) override {
    if (recorder_ != nullptr) {
      recorder_->Record(addr, bytes,
                        is_write ? MemEvent::kWrite : MemEvent::kRead);
    }
  }
  void OnAtomic(std::uint64_t addr, std::uint32_t bytes) override {
    if (recorder_ != nullptr) recorder_->Record(addr, bytes, MemEvent::kAtomic);
  }

 private:
  MemRecorder* recorder_;
};

}  // namespace

Executor::Executor() = default;
Executor::Executor(Executor&&) noexcept = default;
Executor& Executor::operator=(Executor&&) noexcept = default;
Executor::~Executor() = default;

StatusOr<Executor> Executor::Create(
    const Program* program, LaunchConfig config, Bindings bindings,
    KirExec engine, std::shared_ptr<const vm::CompiledProgram> bytecode) {
  MALI_CHECK(program != nullptr);
  Executor e;
  if (engine == KirExec::kInterp) {
    StatusOr<InterpExecutor> interp =
        InterpExecutor::Create(program, config, std::move(bindings));
    if (!interp.ok()) return interp.status();
    e.interp_ = std::make_unique<InterpExecutor>(*std::move(interp));
    return StatusOr<Executor>(std::move(e));
  }
  if (bytecode == nullptr) {
    StatusOr<std::shared_ptr<const vm::CompiledProgram>> compiled =
        vm::CompileProgram(*program);
    if (!compiled.ok()) return compiled.status();
    bytecode = *std::move(compiled);
  }
  StatusOr<vm::VmExecutor> bvm = vm::VmExecutor::Create(
      program, std::move(bytecode), config, std::move(bindings));
  if (!bvm.ok()) return bvm.status();
  e.bytecode_ = std::make_unique<vm::VmExecutor>(*std::move(bvm));
  return StatusOr<Executor>(std::move(e));
}

Status Executor::RunGroup(const std::array<std::uint64_t, 3>& group_id,
                          MemRecorder* recorder, WorkGroupRun* out) {
  if (interp_ == nullptr) return bytecode_->RunGroup(group_id, recorder, out);
  RecorderSink sink(recorder);
  return interp_->RunGroup(group_id, &sink, out);
}

Status Executor::RunAllGroups(MemRecorder* recorder, WorkGroupRun* out) {
  if (interp_ == nullptr) return bytecode_->RunAllGroups(recorder, out);
  RecorderSink sink(recorder);
  return interp_->RunAllGroups(&sink, out);
}

const LaunchConfig& Executor::config() const {
  return interp_ != nullptr ? interp_->config() : bytecode_->config();
}

void Executor::set_opcode_tally(std::uint64_t* tally) {
  if (interp_ != nullptr) {
    interp_->set_opcode_tally(tally);
  } else {
    bytecode_->set_opcode_tally(tally);
  }
}

void Executor::set_host_time(HostTimeSink* sink) {
  if (interp_ != nullptr) {
    interp_->set_host_time(sink);
  } else {
    bytecode_->set_host_time(sink);
  }
}

StatusOr<WorkGroupRun> RunProgram(const Program& program, LaunchConfig config,
                                  Bindings bindings, KirExec engine) {
  StatusOr<Executor> executor =
      Executor::Create(&program, config, std::move(bindings), engine);
  if (!executor.ok()) return executor.status();
  WorkGroupRun run;
  MALI_RETURN_IF_ERROR(executor->RunAllGroups(nullptr, &run));
  return run;
}

StatusOr<WorkGroupRun> RunProgramParallel(const Program& program,
                                          LaunchConfig config,
                                          const Bindings& bindings,
                                          int threads, KirExec engine) {
  if (threads < 1) return InvalidArgumentError("threads must be >= 1");
  // Validate once up front so misuse fails identically to RunProgram, and
  // compile the bytecode once so every chunk shares it.
  MALI_RETURN_IF_ERROR(ValidateLaunch(program, config, bindings));
  std::shared_ptr<const vm::CompiledProgram> bytecode;
  if (engine == KirExec::kBytecode) {
    StatusOr<std::shared_ptr<const vm::CompiledProgram>> compiled =
        vm::CompileProgram(program);
    if (!compiled.ok()) return compiled.status();
    bytecode = *std::move(compiled);
  }

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
    StatusOr<Executor> executor = Executor::Create(
        &program, config, std::move(chunk_bindings), engine, bytecode);
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
