// Mali kernel compiler model: the device-side half of the runtime kernel
// compilation the ARM driver performs (paper §II-B). Runs the generic IR
// passes, register-allocates (liveness-based footprint), derives thread
// occupancy, applies the qualifier scheduling bonuses, and reproduces the
// documented FP64 erratum and CL_OUT_OF_RESOURCES behaviours.
#pragma once

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "kir/passes.h"
#include "kir/program.h"
#include "mali/t604_params.h"

namespace malisim::kir::vm {
struct CompiledProgram;
}  // namespace malisim::kir::vm

namespace malisim::mali {

struct CompiledKernel {
  const kir::Program* program = nullptr;
  kir::ProgramFeatures features;
  /// Bytecode for the kir VM (kir/vm/bytecode.h), compiled once per kernel
  /// as part of the pure analysis and shared by every executor the device
  /// models create for it (cache hits inherit it). Null only for kernels
  /// built before the bytecode layer existed or when compilation is
  /// bypassed; sim::GroupRunner then compiles on the spot.
  std::shared_ptr<const kir::vm::CompiledProgram> bytecode;
  /// Register allocation result (peak live bytes per work-item).
  std::uint32_t live_reg_bytes = 0;
  /// Resident work-items per shader core at this register footprint.
  std::uint32_t threads_per_core = 0;
  /// True when the kernel exceeds the per-thread register budget; build
  /// succeeds (matching the ARM driver) but any enqueue fails with
  /// CL_OUT_OF_RESOURCES.
  bool exceeds_resources = false;
  /// Arithmetic-issue scale from aliasing/const guarantees (§III-B
  /// "Directives and Type Qualifiers"); 1.0 = no bonus.
  double sched_factor = 1.0;
};

/// The pure half of the compile: verification, feature analysis, register
/// allocation, occupancy and scheduling bonuses — a deterministic function
/// of (program, timing) with no fault-injection involvement, so its result
/// is content-addressable (mali::CompileCache). `exceeds_resources` is
/// computed against the nominal register budget; ApplyBuildFaults may
/// tighten it.
StatusOr<CompiledKernel> AnalyzeForMali(const kir::Program& program,
                                        const MaliTimingParams& timing);

/// The fault-gate half: probabilistic kBuild compiler crashes, the FP64
/// erratum quirk, and the (possibly kRegSqueeze-squeezed) register budget.
/// Consumes the injector's kBuild and kRegSqueeze decision streams in the
/// same order whether the analysis came from a fresh compile or a cache
/// hit — per-job fault schedules are independent of cache warmth.
Status ApplyBuildFaults(CompiledKernel* k, const kir::Program& program,
                        const MaliTimingParams& timing,
                        const MaliCompilerParams& params);

/// Compiles `program` for the T604: AnalyzeForMali + ApplyBuildFaults.
/// Fails with BuildFailure when the FP64 erratum triggers
/// (emulate_fp64_erratum). The program must outlive the compiled kernel.
StatusOr<CompiledKernel> CompileForMali(const kir::Program& program,
                                        const MaliTimingParams& timing,
                                        const MaliCompilerParams& params);

}  // namespace malisim::mali
