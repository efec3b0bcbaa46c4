// Shared machinery for benchmark implementations: precision-erased host
// arrays, CPU/GPU run helpers, validation, and common KIR snippets.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/degrade.h"
#include "hpc/benchmark.h"
#include "kir/builder.h"
#include "kir/exec_types.h"
#include "kir/program.h"

namespace malisim::hpc::detail {

/// A host array of f32 or f64 elements behind one interface, so each
/// benchmark implements its logic once for both precisions.
class FpBuffer {
 public:
  FpBuffer() = default;
  FpBuffer(bool fp64, std::size_t n) : fp64_(fp64) {
    if (fp64) {
      d_.assign(n, 0.0);
    } else {
      f_.assign(n, 0.0f);
    }
  }

  bool fp64() const { return fp64_; }
  std::size_t size() const { return fp64_ ? d_.size() : f_.size(); }
  std::size_t bytes() const { return size() * elem_bytes(); }
  std::size_t elem_bytes() const { return fp64_ ? 8 : 4; }
  kir::ScalarType type() const {
    return fp64_ ? kir::ScalarType::kF64 : kir::ScalarType::kF32;
  }

  double Get(std::size_t i) const {
    return fp64_ ? d_[i] : static_cast<double>(f_[i]);
  }
  void Set(std::size_t i, double v) {
    if (fp64_) {
      d_[i] = v;
    } else {
      f_[i] = static_cast<float>(v);
    }
  }

  void* data() { return fp64_ ? static_cast<void*>(d_.data()) : f_.data(); }
  const void* data() const {
    return fp64_ ? static_cast<const void*>(d_.data()) : f_.data();
  }

  void FillFrom(std::span<const double> src) {
    for (std::size_t i = 0; i < src.size() && i < size(); ++i) Set(i, src[i]);
  }

 private:
  bool fp64_ = false;
  std::vector<float> f_;
  std::vector<double> d_;
};

/// Raw binding for CPU-device runs (the Serial/OpenMP versions use plain
/// host arrays, not CL buffers — mirroring the paper's plain-C codes).
struct CpuBind {
  void* data = nullptr;
  std::size_t bytes = 0;
};

/// Runs a kernel on the A15 device: 1 thread = Serial, 2 = OpenMP.
/// Buffers get synthetic unified-space addresses. Caches are flushed first
/// (every variant starts cold; see DESIGN.md §6).
StatusOr<RunOutcome> RunCpu(Devices& devices, const kir::Program& program,
                            const kir::LaunchConfig& config,
                            const std::vector<CpuBind>& buffers,
                            const std::vector<kir::ScalarValue>& scalars,
                            int threads);

/// Creates a zero-copy (CL_MEM_ALLOC_HOST_PTR) buffer and fills it through
/// the map/unmap path the paper recommends (§III-A). The transfer events are
/// not part of the measured region (§IV-B: both CL variants use mapping).
StatusOr<std::shared_ptr<ocl::Buffer>> MakeGpuBuffer(ocl::Context& context,
                                                     const void* src,
                                                     std::uint64_t bytes);

/// One enqueued kernel of a GPU variant's measured region.
struct GpuLaunch {
  ocl::Kernel* kernel = nullptr;
  std::uint32_t work_dim = 1;
  std::uint64_t global[3] = {1, 1, 1};
  /// nullptr = let the driver heuristic choose (the naive variants).
  const std::uint64_t* local = nullptr;
};

/// Enqueues the launches in order, merging events into one outcome. When
/// the GPU context's SimOptions carry a per-kernel watchdog budget
/// (fault.watchdog_sec > 0), a launch whose modelled time exceeds it
/// aborts the region with DeadlineExceeded — a degradable error, so the
/// kernel ladder (or the harness variant ladder) can fall back.
StatusOr<RunOutcome> RunGpuLaunches(Devices& devices,
                                    std::span<GpuLaunch> launches);

/// Runs a benchmark-internal kernel ladder through fault::RunLadder under
/// the fault plan's retry policy. Each rung's label is the kernel name used
/// in figure notes ("vector-gather kernel"); its thunk builds, binds and
/// runs that kernel flavor. On fallback the legacy-format note
/// "<CL error> for <label>; fell back to <next label>" is prepended to the
/// winning outcome's note, and retry accounting lands in its stats
/// (fault.retries / fault.backoff_sec). With no injector attached the
/// behavior is exactly the pre-ladder hard-coded fallback: only the
/// deterministic register-budget failure can trip, and it falls one rung.
StatusOr<RunOutcome> RunKernelLadder(
    Devices& devices, std::span<const fault::Rung<RunOutcome>> rungs);

/// Reads back a GPU buffer through the map path into host memory.
Status ReadGpuBuffer(ocl::Context& context, ocl::Buffer& buffer, void* dst,
                     std::uint64_t bytes);

/// Buffer factory for tuned runs, expressing the §III-A map-vs-copy knob.
/// copy_path == false is the zero-copy CL_MEM_ALLOC_HOST_PTR map path the
/// paper recommends (and the golden runs use); copy_path == true is the
/// discrete-GPU-style plain buffer with modelled EnqueueWrite/ReadBuffer
/// transfers. The copy path accumulates the transfer events here and
/// ChargeTransfers folds them into an outcome — on the shared-memory Mali
/// that cost is pure overhead, which is exactly what makes the knob worth
/// tuning.
class TunedBufferSet {
 public:
  TunedBufferSet(ocl::Context& context, bool copy_path)
      : context_(context), copy_path_(copy_path) {}

  StatusOr<std::shared_ptr<ocl::Buffer>> Make(const void* src,
                                              std::uint64_t bytes);
  Status Read(ocl::Buffer& buffer, void* dst, std::uint64_t bytes);

  /// Adds the accumulated transfer time/activity to the measured region.
  /// No-op on the map path (transfers are outside the region, §IV-B).
  void ChargeTransfers(RunOutcome* outcome) const;

 private:
  ocl::Context& context_;
  bool copy_path_;
  double seconds_ = 0.0;
  std::vector<power::ActivityProfile> profiles_;
};

/// Time-weighted merge of activity profiles (kernel launches in sequence).
power::ActivityProfile MergeProfiles(
    std::span<const power::ActivityProfile> profiles);

/// max_i |got[i] - want[i]| / max(|want[i]|, eps).
double MaxRelError(const FpBuffer& got, std::span<const double> want);
double MaxRelError(std::span<const double> got, std::span<const double> want);

/// Marks the outcome validated when err <= tol; always records the error.
void FinishValidation(RunOutcome* outcome, double err, double tol);

// ---- KIR snippets ----

/// Emits the OpenMP-static-schedule chunking preamble: this work-item
/// handles elements [start, end) of n, split evenly over global_size(0).
struct Chunk {
  kir::Val start;
  kir::Val end;
};
Chunk ThreadChunk(kir::KernelBuilder& kb, kir::Val n);

/// Largest power-of-two divisor of `global` that is <= `preferred`: the
/// adaptive form of "manually tuned work-group size" that keeps tuned
/// launches legal at any problem size.
std::uint64_t TunedLocalSize(std::uint64_t global, std::uint64_t preferred);

/// Float constant of the benchmark's precision.
inline kir::Val FConst(kir::KernelBuilder& kb, bool fp64, double v,
                       std::uint8_t lanes = 1) {
  return kb.ConstF(kir::FloatType(fp64, lanes), v);
}

}  // namespace malisim::hpc::detail
