// Benchmark framework: the nine paper benchmarks, each in the four versions
// of §IV-B (Serial / OpenMP on the A15 model, OpenCL / OpenCL Opt on the
// Mali model), with functional validation against host references.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stats.h"
#include "cpu/a15_device.h"
#include "kir/exec_types.h"
#include "hpc/problem_sizes.h"
#include "ocl/runtime.h"
#include "power/profile.h"
#include "sim/tuner.h"

namespace malisim::hpc {

/// The four paper versions plus kHetero: the optimized OpenCL version
/// co-executed across the Mali and both A15 cores by the sim::Device hetero
/// backend. Benchmarks themselves only implement the four paper versions;
/// Benchmark::RunVariant resolves kHetero onto the optimized path against
/// the hetero-backend context.
enum class Variant : std::uint8_t {
  kSerial,
  kOpenMP,
  kOpenCL,
  kOpenCLOpt,
  kHetero
};
/// The paper's four versions (§IV-B), the default sweep.
inline constexpr Variant kAllVariants[] = {Variant::kSerial, Variant::kOpenMP,
                                           Variant::kOpenCL,
                                           Variant::kOpenCLOpt};
/// The four versions plus the co-execution column.
inline constexpr Variant kAllVariantsWithHetero[] = {
    Variant::kSerial, Variant::kOpenMP, Variant::kOpenCL, Variant::kOpenCLOpt,
    Variant::kHetero};

std::string_view VariantName(Variant v);

/// Degradation-ladder order, most- to least-ambitious (DESIGN.md §8). The
/// co-execution rung sits on top: losing a device degrades to the Mali-only
/// optimized version, then down the paper ladder to Serial. Fallbacks are
/// derived positionally (LadderFrom), not per-enumerator.
inline constexpr Variant kDegradationLadder[] = {
    Variant::kHetero, Variant::kOpenCLOpt, Variant::kOpenCL, Variant::kOpenMP,
    Variant::kSerial};

/// The rungs a request for `v` walks: `v`, then every variant below it.
std::span<const Variant> LadderFrom(Variant v);

/// Devices a benchmark runs against. The harness owns them; reusing one
/// CPU/GPU pair across variants matches the single-board methodology.
/// `hetero` (optional) is a context whose backend co-executes each NDRange
/// across both devices; kHetero is unavailable while it is null.
struct Devices {
  cpu::CortexA15Device* cpu = nullptr;
  ocl::Context* gpu = nullptr;
  ocl::Context* hetero = nullptr;
};

/// Result of running one variant once.
struct RunOutcome {
  /// Modelled time of the measured region (parallel/kernel region only,
  /// §IV-D: initialization and finalization are excluded).
  double seconds = 0.0;
  /// Activity over the measured region, for the power model.
  power::ActivityProfile profile;
  /// Functional execution counts (dynamic op histogram, memory traffic,
  /// atomics, imbalance) aggregated over the region's kernel launches.
  kir::WorkGroupRun run;
  /// Functional validation against the host reference.
  bool validated = false;
  double max_rel_error = 0.0;
  /// Free-form annotation (e.g. "CL_OUT_OF_RESOURCES: fell back to vec2").
  std::string note;
  StatRegistry stats;
};

class Benchmark {
 public:
  virtual ~Benchmark() = default;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;

  /// Generates inputs and the double-precision host reference for the given
  /// arithmetic precision. Deterministic in `seed`.
  virtual Status Setup(bool fp64, std::uint64_t seed) = 0;

  /// Runs one of the four paper versions. Requires Setup. GPU variants may
  /// fail with BuildFailure (amcd FP64 erratum) — the harness reports those
  /// as the paper does (missing bars in Fig. 2b).
  virtual StatusOr<RunOutcome> Run(Variant variant, Devices& devices) = 0;

  /// Runs any variant, including the kHetero pseudo-variant, which executes
  /// the optimized OpenCL version against devices.hetero (FailedPrecondition
  /// while that context is absent). The four paper versions pass through to
  /// Run() unchanged.
  StatusOr<RunOutcome> RunVariant(Variant variant, Devices& devices);

  // ---- §III tuning surface (sim::Tuner clients) ----

  /// Declarative search space of the optimized OpenCL version's knobs
  /// (work-group size, vector width, unroll factor, buffer strategy,
  /// kernel flavor). Empty space (the default) = not tunable.
  virtual sim::TuningSpace TunableSpace() const { return {}; }

  /// The paper's hand-picked §III operating point inside TunableSpace().
  /// The tuner conformance battery checks the searched winner matches or
  /// beats this configuration under both time and energy objectives.
  virtual sim::TuningConfig PaperOptConfig() const { return {}; }

  /// Runs the optimized OpenCL version parameterized by `config` against
  /// devices.gpu. Requires Setup. Unimplemented for non-tunable
  /// benchmarks. The fixed Run(kOpenCLOpt) path stays untouched so golden
  /// figures are byte-identical; RunTuned(PaperOptConfig()) expresses the
  /// same optimization decisions through the parameterized kernels.
  virtual StatusOr<RunOutcome> RunTuned(const sim::TuningConfig& config,
                                        Devices& devices);

  /// Canonical KIR text of the kernel(s) RunTuned would launch at
  /// `config` — the content the tuning cache fingerprints. Requires Setup
  /// (kernels depend on precision and problem size).
  virtual StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const;

 protected:
  bool fp64_ = false;
  std::uint64_t seed_ = 0;
};

/// Benchmark names in the paper's figure order.
std::vector<std::string> RegisteredBenchmarks();

/// Factory; returns nullptr for unknown names.
std::unique_ptr<Benchmark> CreateBenchmark(const std::string& name,
                                           const ProblemSizes& sizes = {});

}  // namespace malisim::hpc
