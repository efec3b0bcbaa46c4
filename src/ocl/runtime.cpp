#include "ocl/runtime.h"

#include <cstring>
#include <utility>

#include "common/log.h"
#include "fault/injector.h"
#include "kir/passes.h"
#include "kir/vm/bytecode.h"
#include "mali/compiler_cache.h"
#include "obs/recorder.h"

namespace malisim::ocl {

// ---------------------------------------------------------------- Context

Context::Context(const mali::MaliTimingParams& timing,
                 const mali::MaliMemoryConfig& memory,
                 const mali::MaliCompilerParams& compiler,
                 const HostParams& host)
    : timing_(timing),
      compiler_(compiler),
      host_(host),
      device_(timing, memory),
      hetero_(&device_, &cpu_device_, sim::HeteroConfig{}),
      queue_(this) {}

Context::Context(DeviceType type)
    : type_(type),
      device_(timing_, mali::MaliMemoryConfig()),
      hetero_(&device_, &cpu_device_, sim::HeteroConfig{}),
      queue_(this) {
  if (type_ == DeviceType::kA15) {
    // The CPU path compiles with the generic pipeline only: no Mali
    // erratum, no shader-core register budget. The hetero backend keeps
    // the Mali compiler configuration — its GPU half needs it.
    compiler_.emulate_fp64_erratum = false;
    timing_.max_thread_reg_bytes = 0xFFFFFFFFu;
  }
}

Context::DeviceInfo Context::device_info() const {
  const sim::DeviceCaps& caps = backend().caps();
  DeviceInfo info;
  info.name = caps.name;
  info.type = caps.kind;
  info.compute_units = caps.compute_units;
  info.max_work_group_size = kMaxWorkGroupSize;
  info.clock_hz = caps.clock_hz;
  info.fp64 = true;  // OpenCL Full Profile on both (the paper's premise)
  return info;
}

StatusOr<std::shared_ptr<Buffer>> Context::CreateBuffer(std::uint32_t flags,
                                                        std::uint64_t bytes,
                                                        void* host_ptr) {
  if (bytes == 0) {
    return InvalidArgumentError("CL_INVALID_BUFFER_SIZE: zero-sized buffer");
  }
  const bool use_host = (flags & kMemUseHostPtr) != 0;
  const bool copy_host = (flags & kMemCopyHostPtr) != 0;
  const bool alloc_host = (flags & kMemAllocHostPtr) != 0;
  if ((use_host || copy_host) && host_ptr == nullptr) {
    return InvalidArgumentError(
        "CL_INVALID_VALUE: kMemUseHostPtr/kMemCopyHostPtr need a host_ptr");
  }
  if (use_host && alloc_host) {
    return InvalidArgumentError(
        "CL_INVALID_VALUE: kMemUseHostPtr and kMemAllocHostPtr are exclusive");
  }
  if (fault_injector_ != nullptr &&
      fault_injector_->Trip(fault::FaultSite::kAlloc,
                            std::to_string(bytes) + "B")) {
    return AllocationFailureError(
        "CL_MEM_OBJECT_ALLOCATION_FAILURE (injected fault): driver could "
        "not back a " +
        std::to_string(bytes) + "-byte buffer");
  }

  auto buffer = std::shared_ptr<Buffer>(new Buffer());
  buffer->flags_ = flags;
  buffer->size_ = bytes;
  buffer->storage_ = AlignedBuffer(bytes);
  buffer->storage_.ZeroFill();
  buffer->user_ptr_ = use_host ? host_ptr : nullptr;
  // Unified simulated address space, 4 KiB-aligned allocations.
  buffer->sim_addr_ = next_sim_addr_;
  next_sim_addr_ += (bytes + 4095) / 4096 * 4096 + 4096;

  if (copy_host || use_host) {
    // kCopyHostPtr initializes the driver allocation; for kUseHostPtr the
    // shadow starts in sync with the app memory (creation-time snapshot).
    std::memcpy(buffer->storage_.data(), host_ptr, bytes);
  }
  return buffer;
}

std::shared_ptr<Program> Context::CreateProgram(
    std::vector<kir::Program> kernels) {
  auto program = std::shared_ptr<Program>(
      new Program(std::move(kernels), timing_, compiler_));
  program->recorder_ = recorder_;
  program->compile_cache_ = compile_cache_;
  return program;
}

StatusOr<std::shared_ptr<Kernel>> Context::CreateKernel(
    const std::shared_ptr<Program>& program, const std::string& name) {
  MALI_CHECK(program != nullptr);
  if (!program->built()) {
    return FailedPreconditionError(
        "CL_INVALID_PROGRAM_EXECUTABLE: program not built");
  }
  StatusOr<const mali::CompiledKernel*> compiled = program->GetCompiled(name);
  if (!compiled.ok()) return compiled.status();
  const kir::Program* source = program->GetSource(name);
  return std::shared_ptr<Kernel>(new Kernel(name, program, source, *compiled));
}

// ---------------------------------------------------------------- Program

Program::Program(std::vector<kir::Program> kernels,
                 mali::MaliTimingParams timing,
                 mali::MaliCompilerParams compiler)
    : kernels_(std::move(kernels)), timing_(timing), compiler_(compiler) {}

Status Program::Build() {
  if (built_) return Status::Ok();
  obs::HostProf* host_prof =
      recorder_ != nullptr ? recorder_->host_prof() : nullptr;
  obs::HostProf::PhaseSpan compile_span(host_prof, obs::HostPhase::kCompile);
  build_log_.clear();
  Status first_error;
  for (kir::Program& kernel : kernels_) {
    // The pure half of the compile: the driver-side optimization pipeline
    // (-cl-opt level of the real driver), the Mali analysis and the VM
    // lowering. It is a function of the kernel text and the timing
    // parameters alone, which is what lets the cache share it.
    const auto compile = [&]() -> StatusOr<mali::CompileCache::Entry> {
      mali::CompileCache::Entry fresh;
      fresh.transformed = kernel;
      StatusOr<int> folded = kir::ConstantFold(&fresh.transformed);
      if (!folded.ok()) return folded.status();
      StatusOr<int> removed = kir::DeadCodeElim(&fresh.transformed);
      if (!removed.ok()) return removed.status();
      StatusOr<mali::CompiledKernel> analyzed =
          mali::AnalyzeForMali(fresh.transformed, timing_);
      if (!analyzed.ok()) return analyzed.status();
      // Lower to VM bytecode under its own phase so malisim-prof can
      // separate it from the analysis; it rides the entry, so a cache hit
      // skips this too.
      obs::HostProf::PhaseSpan vm_span(host_prof, obs::HostPhase::kVmCompile);
      StatusOr<std::shared_ptr<const kir::vm::CompiledProgram>> bytecode =
          kir::vm::CompileProgram(fresh.transformed);
      if (!bytecode.ok()) return bytecode.status();
      fresh.analyzed = *std::move(analyzed);
      fresh.analyzed.bytecode = *std::move(bytecode);
      fresh.analyzed.program = nullptr;
      return fresh;
    };
    StatusOr<std::shared_ptr<const mali::CompileCache::Entry>> entry =
        InternalError("uncompiled");
    if (compile_cache_ != nullptr) {
      entry = compile_cache_->GetOrCompile(
          mali::CompileCache::Key(kernel, timing_), compile);
    } else if (StatusOr<mali::CompileCache::Entry> fresh = compile();
               fresh.ok()) {
      entry = std::make_shared<const mali::CompileCache::Entry>(
          *std::move(fresh));
    } else {
      entry = fresh.status();
    }

    mali::CompiledKernel compiled;
    Status status = entry.status();
    if (status.ok()) {
      // Adopt the post-pass program and the pure analysis, then run the
      // fault gates, which are never cached: the injector consumes the same
      // decisions on a cache hit, a miss and a cacheless build.
      kernel = (*entry)->transformed;
      compiled = (*entry)->analyzed;
      compiled.program = &kernel;
      status = mali::ApplyBuildFaults(&compiled, kernel, timing_, compiler_);
    }
    if (!status.ok()) {
      MALI_LOG_WARN("clBuildProgram: kernel '%s' failed to compile: %s",
                    kernel.name.c_str(), status.ToString().c_str());
      build_log_ +=
          "error: kernel '" + kernel.name + "': " + status.ToString() + "\n";
      if (first_error.ok()) first_error = status;
      continue;
    }
    build_log_ += "kernel '" + kernel.name + "': " +
                  std::to_string(compiled.live_reg_bytes) +
                  " reg bytes/work-item, " +
                  std::to_string(compiled.threads_per_core) +
                  " threads/core" +
                  (compiled.exceeds_resources
                       ? " (exceeds per-thread budget: enqueue will fail)"
                       : "") +
                  "\n";
    compiled_.emplace(kernel.name, std::move(compiled));
  }
  if (!first_error.ok()) return first_error;
  built_ = true;
  return Status::Ok();
}

StatusOr<const mali::CompiledKernel*> Program::GetCompiled(
    const std::string& name) const {
  if (!built_) {
    return FailedPreconditionError("program not built");
  }
  auto it = compiled_.find(name);
  if (it == compiled_.end()) {
    return NotFoundError("no kernel named '" + name + "'");
  }
  return &it->second;
}

const kir::Program* Program::GetSource(const std::string& name) const {
  for (const kir::Program& kernel : kernels_) {
    if (kernel.name == name) return &kernel;
  }
  return nullptr;
}

// ----------------------------------------------------------------- Kernel

Kernel::Kernel(std::string name, std::shared_ptr<const Program> program,
               const kir::Program* source, const mali::CompiledKernel* compiled)
    : name_(std::move(name)),
      program_(std::move(program)),
      source_(source),
      compiled_(compiled) {
  MALI_CHECK(source_ != nullptr && compiled_ != nullptr);
  args_.resize(source_->args.size());
  for (std::size_t i = 0; i < source_->args.size(); ++i) {
    args_[i].is_buffer = source_->args[i].kind != kir::ArgKind::kScalar;
  }
}

Status Kernel::SetArgBuffer(std::uint32_t index,
                            std::shared_ptr<Buffer> buffer) {
  if (index >= args_.size() || !args_[index].is_buffer) {
    return InvalidArgumentError("CL_INVALID_KERNEL_ARGS: arg " +
                                std::to_string(index) + " is not a buffer");
  }
  if (buffer == nullptr) {
    return InvalidArgumentError("CL_INVALID_KERNEL_ARGS: null buffer");
  }
  args_[index].buffer = std::move(buffer);
  args_[index].set = true;
  return Status::Ok();
}

Status Kernel::SetArgScalar(std::uint32_t index, kir::ScalarValue value) {
  if (index >= args_.size() || args_[index].is_buffer) {
    return InvalidArgumentError("CL_INVALID_KERNEL_ARGS: arg " +
                                std::to_string(index) + " is not a scalar");
  }
  if (source_->args[index].elem != value.type) {
    return InvalidArgumentError("CL_INVALID_KERNEL_ARGS: scalar type "
                                "mismatch for arg " +
                                std::to_string(index));
  }
  args_[index].scalar = value;
  args_[index].set = true;
  return Status::Ok();
}

StatusOr<kir::Bindings> Kernel::MakeBindings() const {
  kir::Bindings bindings;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    const ArgSlot& slot = args_[i];
    if (!slot.set) {
      return InvalidArgumentError("CL_INVALID_KERNEL_ARGS: arg " +
                                  std::to_string(i) + " ('" +
                                  source_->args[i].name + "') is unset");
    }
    if (slot.is_buffer) {
      bindings.buffers.push_back({slot.buffer->device_storage(),
                                  slot.buffer->sim_addr(),
                                  slot.buffer->size()});
    } else {
      bindings.scalars.push_back(slot.scalar);
    }
  }
  return bindings;
}

// ----------------------------------------------------------- CommandQueue

void CommandQueue::RecordCommand(const char* kind, const std::string& detail,
                                 std::uint64_t bytes, double seconds) {
  obs::Recorder* recorder = context_->recorder_;
  if (recorder == nullptr || !recorder->counters_enabled()) return;
  recorder->AddCommand({kind, detail, bytes, seconds});
}

Status CommandQueue::MaybeInject(fault::FaultSite site,
                                 const std::string& key) {
  fault::FaultInjector* injector = context_->fault_injector_;
  if (injector == nullptr || !injector->Trip(site, key)) {
    return Status::Ok();
  }
  const std::string name(fault::FaultSiteName(site));
  if (site == fault::FaultSite::kMap || site == fault::FaultSite::kUnmap) {
    return UnavailableError("CL_MAP_FAILURE (injected fault): transient " +
                            name + " failure on '" + key + "'");
  }
  return UnavailableError("CL_OUT_OF_RESOURCES (injected fault): transient " +
                          name + " failure on '" + key + "'");
}

sim::EventId CommandQueue::AddGraphNode(sim::CmdKind kind, std::string label,
                                        double seconds, int lane) {
  std::vector<sim::EventId> deps;
  if (async_) {
    deps = std::move(pending_wait_);
    pending_wait_.clear();
  } else if (last_event_ != sim::kNullEvent) {
    deps.push_back(last_event_);
  }
  last_event_ = graph_.Add(kind, std::move(label), seconds, lane, deps);
  return last_event_;
}

sim::EventId CommandQueue::EnqueueBarrier() {
  std::vector<sim::EventId> deps;
  if (async_) {
    // clEnqueueBarrier waits for everything previously submitted.
    deps.resize(graph_.size());
    for (sim::EventId id = 0; id < deps.size(); ++id) deps[id] = id;
    pending_wait_.clear();
  } else if (last_event_ != sim::kNullEvent) {
    deps.push_back(last_event_);
  }
  last_event_ = graph_.Add(sim::CmdKind::kBarrier, "barrier", 0.0,
                           sim::kLaneHost, deps);
  return last_event_;
}

StatusOr<double> CommandQueue::ScheduledSeconds() const {
  if (graph_.empty()) return 0.0;
  obs::Recorder* recorder = context_->recorder_;
  obs::HostProf::PhaseSpan schedule_span(
      recorder != nullptr ? recorder->host_prof() : nullptr,
      obs::HostPhase::kSchedule);
  StatusOr<sim::ScheduleResult> result = sim::ScheduleEvents(graph_);
  if (!result.ok()) return result.status();
  return result->makespan_sec;
}

Status CommandQueue::RecordScheduledGraph(const std::string& label) {
  obs::Recorder* recorder = context_->recorder_;
  if (recorder == nullptr || graph_.empty()) return Status::Ok();
  obs::HostProf::PhaseSpan schedule_span(recorder->host_prof(),
                                         obs::HostPhase::kSchedule);
  StatusOr<sim::ScheduleResult> schedule = sim::ScheduleEvents(graph_);
  if (!schedule.ok()) return schedule.status();
  const std::vector<bool> critical = sim::CriticalPathNodes(graph_);

  obs::GraphRecord record;
  record.label = label;
  record.makespan_sec = schedule->makespan_sec;
  record.serial_sec = schedule->serial_sec;
  record.critical_path_sec = schedule->critical_path_sec;
  record.lane_busy_sec = schedule->lane_busy_sec;

  // start/finish indexed by event id (`order` is retirement-sorted).
  std::vector<double> start(graph_.size(), 0.0);
  std::vector<double> finish(graph_.size(), 0.0);
  for (const sim::ScheduledEvent& ev : schedule->order) {
    start[ev.id] = ev.start_sec;
    finish[ev.id] = ev.finish_sec;
  }
  record.nodes.reserve(graph_.size());
  for (const sim::EventNode& node : graph_.nodes()) {
    obs::GraphNodeRecord out;
    out.label = node.label;
    out.lane = node.lane;
    out.start_sec = start[node.id];
    out.finish_sec = finish[node.id];
    out.deps.assign(node.deps.begin(), node.deps.end());
    out.critical = critical[node.id];
    record.nodes.push_back(std::move(out));
  }
  recorder->AddGraph(std::move(record));
  return Status::Ok();
}

Event CommandQueue::HostCopyEvent(Event::Kind kind, std::uint64_t bytes,
                                  double overhead) {
  Event event;
  event.kind = kind;
  event.seconds =
      overhead + static_cast<double>(bytes) / context_->host_.memcpy_bytes_per_sec;
  event.profile.seconds = event.seconds;
  event.profile.cpu_busy[0] = 1.0;  // the A15 performs the copy
  event.profile.gpu_on = true;      // context holds the GPU powered
  event.profile.dram_bytes = 2 * bytes;  // read source + write destination
  total_seconds_ += event.seconds;
  return event;
}

StatusOr<Event> CommandQueue::EnqueueWriteBuffer(Buffer& buffer,
                                                 const void* src,
                                                 std::uint64_t bytes,
                                                 std::uint64_t offset) {
  if (src == nullptr || offset + bytes > buffer.size()) {
    return InvalidArgumentError("CL_INVALID_VALUE: bad write range");
  }
  MALI_RETURN_IF_ERROR(MaybeInject(fault::FaultSite::kWrite, "write"));
  std::memcpy(buffer.storage_.data() + offset, src, bytes);
  Event event = HostCopyEvent(Event::Kind::kWrite, bytes,
                              context_->host_.enqueue_overhead_sec);
  event.node = AddGraphNode(sim::CmdKind::kWrite, "write", event.seconds,
                            sim::kLaneHost);
  RecordCommand("write", "", bytes, event.seconds);
  return event;
}

StatusOr<Event> CommandQueue::EnqueueReadBuffer(Buffer& buffer, void* dst,
                                                std::uint64_t bytes,
                                                std::uint64_t offset) {
  if (dst == nullptr || offset + bytes > buffer.size()) {
    return InvalidArgumentError("CL_INVALID_VALUE: bad read range");
  }
  MALI_RETURN_IF_ERROR(MaybeInject(fault::FaultSite::kRead, "read"));
  std::memcpy(dst, buffer.storage_.data() + offset, bytes);
  Event event = HostCopyEvent(Event::Kind::kRead, bytes,
                              context_->host_.enqueue_overhead_sec);
  event.node = AddGraphNode(sim::CmdKind::kRead, "read", event.seconds,
                            sim::kLaneHost);
  RecordCommand("read", "", bytes, event.seconds);
  return event;
}

StatusOr<Event> CommandQueue::EnqueueCopyBuffer(Buffer& src, Buffer& dst,
                                                std::uint64_t bytes,
                                                std::uint64_t src_offset,
                                                std::uint64_t dst_offset) {
  if (src_offset + bytes > src.size() || dst_offset + bytes > dst.size()) {
    return InvalidArgumentError("CL_INVALID_VALUE: bad copy range");
  }
  MALI_RETURN_IF_ERROR(MaybeInject(fault::FaultSite::kCopy, "copy"));
  std::memcpy(dst.storage_.data() + dst_offset,
              src.storage_.data() + src_offset, bytes);
  // Device-side copy: the GPU streams it at (roughly) DRAM read+write
  // bandwidth without occupying the host CPU.
  const mali::MaliMemoryConfig mem;
  const double bw = mem.dram.peak_bandwidth_bytes_per_sec *
                    mem.dram.streaming_efficiency / 2.0;  // read + write
  Event event;
  event.kind = Event::Kind::kWrite;
  event.seconds =
      context_->host_.enqueue_overhead_sec + static_cast<double>(bytes) / bw;
  event.profile.seconds = event.seconds;
  event.profile.gpu_on = true;
  event.profile.gpu_core_busy[0] = 0.5;  // one core's LS pipe streams it
  event.profile.dram_bytes = 2 * bytes;
  total_seconds_ += event.seconds;
  event.node = AddGraphNode(sim::CmdKind::kCopy, "copy", event.seconds,
                            sim::kLaneTransfer);
  RecordCommand("copy", "", bytes, event.seconds);
  return event;
}

StatusOr<Event> CommandQueue::EnqueueFillBuffer(Buffer& buffer,
                                                const void* pattern,
                                                std::uint64_t pattern_bytes,
                                                std::uint64_t bytes,
                                                std::uint64_t offset) {
  if (pattern == nullptr || pattern_bytes == 0 ||
      bytes % pattern_bytes != 0 || offset + bytes > buffer.size()) {
    return InvalidArgumentError("CL_INVALID_VALUE: bad fill");
  }
  MALI_RETURN_IF_ERROR(MaybeInject(fault::FaultSite::kFill, "fill"));
  for (std::uint64_t pos = 0; pos < bytes; pos += pattern_bytes) {
    std::memcpy(buffer.storage_.data() + offset + pos, pattern, pattern_bytes);
  }
  const mali::MaliMemoryConfig mem;
  const double bw =
      mem.dram.peak_bandwidth_bytes_per_sec * mem.dram.streaming_efficiency;
  Event event;
  event.kind = Event::Kind::kWrite;
  event.seconds =
      context_->host_.enqueue_overhead_sec + static_cast<double>(bytes) / bw;
  event.profile.seconds = event.seconds;
  event.profile.gpu_on = true;
  event.profile.gpu_core_busy[0] = 0.5;
  event.profile.dram_bytes = bytes;
  total_seconds_ += event.seconds;
  event.node = AddGraphNode(sim::CmdKind::kFill, "fill", event.seconds,
                            sim::kLaneTransfer);
  RecordCommand("fill", "", bytes, event.seconds);
  return event;
}

StatusOr<void*> CommandQueue::MapBuffer(Buffer& buffer, Event* event) {
  if (buffer.mapped_) {
    return FailedPreconditionError("CL_INVALID_OPERATION: already mapped");
  }
  MALI_RETURN_IF_ERROR(MaybeInject(fault::FaultSite::kMap, "map"));
  buffer.mapped_ = true;
  if ((buffer.flags_ & kMemUseHostPtr) != 0) {
    // The app mapped a malloc-backed buffer: the driver must copy the
    // device shadow out to the app allocation (§III-A: this path does not
    // solve "the additional copy issue").
    std::memcpy(buffer.user_ptr_, buffer.storage_.data(), buffer.size_);
    Event e = HostCopyEvent(Event::Kind::kMap, buffer.size_,
                            context_->host_.map_overhead_sec);
    e.node = AddGraphNode(sim::CmdKind::kMap, "map", e.seconds,
                          sim::kLaneHost);
    RecordCommand("map", "copy-out", buffer.size_, e.seconds);
    if (event != nullptr) *event = e;
    return buffer.user_ptr_;
  }
  // Unified memory: cache maintenance only, no copy.
  Event e;
  e.kind = Event::Kind::kMap;
  e.seconds = context_->host_.map_overhead_sec;
  e.profile.seconds = e.seconds;
  e.profile.cpu_busy[0] = 1.0;
  e.profile.gpu_on = true;
  total_seconds_ += e.seconds;
  e.node = AddGraphNode(sim::CmdKind::kMap, "map", e.seconds, sim::kLaneHost);
  RecordCommand("map", "zero-copy", 0, e.seconds);
  if (event != nullptr) *event = e;
  return buffer.storage_.data();
}

Status CommandQueue::UnmapBuffer(Buffer& buffer, void* mapped, Event* event) {
  if (!buffer.mapped_) {
    return FailedPreconditionError("CL_INVALID_OPERATION: not mapped");
  }
  MALI_RETURN_IF_ERROR(MaybeInject(fault::FaultSite::kUnmap, "unmap"));
  if ((buffer.flags_ & kMemUseHostPtr) != 0) {
    if (mapped != buffer.user_ptr_) {
      return InvalidArgumentError("CL_INVALID_VALUE: wrong mapped pointer");
    }
    buffer.mapped_ = false;
    // Propagate app writes back into the device shadow.
    std::memcpy(buffer.storage_.data(), buffer.user_ptr_, buffer.size_);
    Event e = HostCopyEvent(Event::Kind::kUnmap, buffer.size_,
                            context_->host_.unmap_overhead_sec);
    e.node = AddGraphNode(sim::CmdKind::kUnmap, "unmap", e.seconds,
                          sim::kLaneHost);
    RecordCommand("unmap", "copy-in", buffer.size_, e.seconds);
    if (event != nullptr) *event = e;
    return Status::Ok();
  }
  if (mapped != static_cast<void*>(buffer.storage_.data())) {
    return InvalidArgumentError("CL_INVALID_VALUE: wrong mapped pointer");
  }
  buffer.mapped_ = false;
  Event e;
  e.kind = Event::Kind::kUnmap;
  e.seconds = context_->host_.unmap_overhead_sec;
  e.profile.seconds = e.seconds;
  e.profile.cpu_busy[0] = 1.0;
  e.profile.gpu_on = true;
  total_seconds_ += e.seconds;
  e.node =
      AddGraphNode(sim::CmdKind::kUnmap, "unmap", e.seconds, sim::kLaneHost);
  RecordCommand("unmap", "zero-copy", 0, e.seconds);
  if (event != nullptr) *event = e;
  return Status::Ok();
}

StatusOr<Event> CommandQueue::EnqueueNDRange(Kernel& kernel,
                                             std::uint32_t work_dim,
                                             const std::uint64_t* global,
                                             const std::uint64_t* local) {
  if (work_dim < 1 || work_dim > 3 || global == nullptr) {
    return InvalidArgumentError("CL_INVALID_VALUE: bad work dimensions");
  }
  // Enqueue span: self time is the host-side driver work (validation,
  // binding, bookkeeping); the device's execute span nests inside and is
  // charged as child time, so the hotspot table separates the two.
  obs::Recorder* recorder = context_->recorder_;
  obs::HostProf::PhaseSpan enqueue_span(
      recorder != nullptr ? recorder->host_prof() : nullptr,
      obs::HostPhase::kEnqueue);
  kir::LaunchConfig config;
  config.work_dim = work_dim;
  std::uint64_t driver_budget = 64;  // the heuristic's total group size cap
  for (std::uint32_t d = 0; d < work_dim; ++d) {
    if (global[d] == 0) {
      return InvalidArgumentError("CL_INVALID_VALUE: zero global size");
    }
    config.global_size[d] = global[d];
    if (local != nullptr) {
      config.local_size[d] = local[d];
    } else {
      config.local_size[d] =
          mali::MaliT604Device::DriverPickLocalSize(global[d], driver_budget);
      driver_budget /= config.local_size[d];
    }
  }
  if (local == nullptr) {
    MALI_LOG_DEBUG(
        "clEnqueueNDRangeKernel('%s'): driver picked local size "
        "%llu x %llu x %llu for global %llu x %llu x %llu",
        kernel.name().c_str(),
        static_cast<unsigned long long>(config.local_size[0]),
        static_cast<unsigned long long>(config.local_size[1]),
        static_cast<unsigned long long>(config.local_size[2]),
        static_cast<unsigned long long>(config.global_size[0]),
        static_cast<unsigned long long>(config.global_size[1]),
        static_cast<unsigned long long>(config.global_size[2]));
  }
  if (config.work_group_size() > Context::kMaxWorkGroupSize) {
    return InvalidArgumentError(
        "CL_INVALID_WORK_GROUP_SIZE: work-group size exceeds device maximum");
  }
  if (!config.IsValid()) {
    return InvalidArgumentError(
        "CL_INVALID_WORK_GROUP_SIZE: global size is not a multiple of the "
        "local size");
  }

  StatusOr<kir::Bindings> bindings = kernel.MakeBindings();
  if (!bindings.ok()) return bindings.status();
  MALI_RETURN_IF_ERROR(MaybeInject(fault::FaultSite::kNDRange, kernel.name()));

  Event event;
  event.kind = Event::Kind::kKernel;
  // Uniform dispatch through the sim::Device backend the context selects:
  // the Mali model consumes kernel.compiled_, the A15 interprets
  // kernel.source_ on both cores, and the hetero backend splits the launch.
  StatusOr<sim::DeviceRunResult> run = context_->backend().RunKernel(
      {kernel.source_, kernel.compiled_}, config, *std::move(bindings));
  if (!run.ok()) {
    // The default backend's CL error strings appear verbatim in golden
    // outputs; the alternate backends annotate so the failure names the
    // device it came from (round-trips through BackendFromStatus).
    if (context_->type_ == DeviceType::kMali) return run.status();
    return AnnotateStatusWithBackend(run.status(), context_->type_);
  }
  event.seconds = run->seconds + context_->host_.enqueue_overhead_sec;
  event.profile = run->profile;
  event.profile.seconds = event.seconds;
  event.run = std::move(run->run);
  event.stats = std::move(run->stats);
  event.stats.Set("ocl.local_size0", static_cast<double>(config.local_size[0]));
  event.stats.Set("ocl.groups", static_cast<double>(config.total_groups()));
  // Counts 1 per kernel event so that ratio-type stats (seq fraction,
  // occupancy) can be re-averaged after a MergeFrom across launches.
  event.stats.Set("ocl.launches", 1.0);
  total_seconds_ += event.seconds;
  event.node = AddGraphNode(sim::CmdKind::kKernel, kernel.name(),
                            event.seconds, sim::kLaneCompute);
  RecordCommand("ndrange", kernel.name(), 0, event.seconds);
  return event;
}

}  // namespace malisim::ocl
