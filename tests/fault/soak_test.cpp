// Randomized fault soak: every benchmark at both precisions under random
// fault schedules must never crash, must validate whatever completes, and
// must replay bit-identically for identical (sim seed, fault seed,
// threads) triples — including across host thread counts.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/figures.h"
#include "obs/recorder.h"

namespace malisim::harness {
namespace {

ExperimentConfig SoakConfig(bool fp64, int sim_threads) {
  ExperimentConfig config;
  config.fp64 = fp64;
  config.repetitions = 5;
  config.sim_threads = sim_threads;
  config.sizes.spmv_rows = 512;
  config.sizes.vecop_n = 1 << 13;
  config.sizes.hist_n = 1 << 13;
  config.sizes.stencil_dim = 16;
  config.sizes.red_n = 1 << 13;
  config.sizes.amcd_chains = 32;
  config.sizes.amcd_atoms = 12;
  config.sizes.amcd_steps = 8;
  config.sizes.nbody_n = 128;
  config.sizes.conv_dim = 64;
  config.sizes.dmmm_n = 32;
  return config;
}

// ---------------------------------------------------------------------------
// Randomized soak: all nine benchmarks x SP/DP x three random schedules.
// With the Serial rung as the ladder's backstop, every cell must finish
// available and validated — injected faults may change *how* a result was
// produced, never *whether* it is correct.
// ---------------------------------------------------------------------------

struct SoakCase {
  std::uint64_t fault_seed;
  bool fp64;
};

class FaultSoakTest : public ::testing::TestWithParam<SoakCase> {};

TEST_P(FaultSoakTest, SurvivesRandomScheduleValidated) {
  const SoakCase c = GetParam();
  ExperimentConfig config = SoakConfig(c.fp64, /*sim_threads=*/4);
  config.fault.seed = c.fault_seed;
  config.fault.rate = 0.02;
  auto results = ExperimentRunner(config).RunAll();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (const BenchmarkResults& r : *results) {
    for (hpc::Variant v : hpc::kAllVariants) {
      SCOPED_TRACE(r.name + "/" + std::string(hpc::VariantName(v)));
      const VariantResult& vr = r.Get(v);
      EXPECT_TRUE(vr.available) << vr.unavailable_reason;
      if (vr.available) {
        EXPECT_TRUE(vr.validated)
            << "max rel err " << vr.max_rel_error << " note: " << vr.note;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, FaultSoakTest,
    ::testing::Values(SoakCase{101, false}, SoakCase{101, true},
                      SoakCase{202, false}, SoakCase{202, true},
                      SoakCase{303, false}, SoakCase{303, true}),
    [](const ::testing::TestParamInfo<SoakCase>& info) {
      return "seed" + std::to_string(info.param.fault_seed) +
             (info.param.fp64 ? "_fp64" : "_fp32");
    });

// ---------------------------------------------------------------------------
// Replay: identical (sim seed, fault seed) triples are bit-identical for
// any host thread count — the full-precision CSV is the strictest witness
// (any modelled second, watt or joule differing changes the string).
// ---------------------------------------------------------------------------

TEST(FaultReplayTest, IdenticalSeedsReplayBitIdentically) {
  ExperimentConfig config = SoakConfig(false, /*sim_threads=*/1);
  config.fault.seed = 7;
  config.fault.rate = 0.05;
  auto first = ExperimentRunner(config).RunAll();
  auto second = ExperimentRunner(config).RunAll();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(RenderFullPrecisionCsv(*first, false),
            RenderFullPrecisionCsv(*second, false));
}

TEST(FaultReplayTest, FaultScheduleIndependentOfHostThreads) {
  ExperimentConfig serial = SoakConfig(false, /*sim_threads=*/1);
  serial.fault.seed = 7;
  serial.fault.rate = 0.05;
  ExperimentConfig parallel = serial;
  parallel.sim_threads = 4;
  auto rs = ExperimentRunner(serial).RunAll();
  auto rp = ExperimentRunner(parallel).RunAll();
  ASSERT_TRUE(rs.ok() && rp.ok());
  EXPECT_EQ(RenderFullPrecisionCsv(*rs, false),
            RenderFullPrecisionCsv(*rp, false));
}

TEST(FaultReplayTest, InjectionOffIsByteIdenticalAcrossThreadCounts) {
  // The acceptance bar for the whole subsystem: a default FaultOptions
  // must leave the sweep byte-identical at 1 and 4 host threads (the
  // golden-figure suite separately pins the absolute bytes).
  auto rs = ExperimentRunner(SoakConfig(false, 1)).RunAll();
  auto rp = ExperimentRunner(SoakConfig(false, 4)).RunAll();
  ASSERT_TRUE(rs.ok() && rp.ok());
  EXPECT_EQ(RenderFullPrecisionCsv(*rs, false),
            RenderFullPrecisionCsv(*rp, false));
}

// ---------------------------------------------------------------------------
// Degradation ladder behaviors.
// ---------------------------------------------------------------------------

TEST(DegradationTest, WatchdogDegradesGpuVariantsToOpenMP) {
  ExperimentConfig config = SoakConfig(false, 1);
  config.fault.watchdog_sec = 1e-12;  // every GPU launch exceeds this
  auto result = ExperimentRunner(config).RunBenchmark("vecop");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (hpc::Variant v : {hpc::Variant::kOpenCL, hpc::Variant::kOpenCLOpt}) {
    SCOPED_TRACE(std::string(hpc::VariantName(v)));
    const VariantResult& vr = result->Get(v);
    ASSERT_TRUE(vr.available) << vr.unavailable_reason;
    EXPECT_EQ(vr.degraded_to, "OpenMP");
    EXPECT_NE(vr.note.find("degraded to OpenMP"), std::string::npos)
        << vr.note;
    EXPECT_TRUE(vr.validated);
  }
  // CPU variants never hit the watchdog.
  EXPECT_TRUE(result->Get(hpc::Variant::kSerial).degraded_to.empty());
  EXPECT_TRUE(result->Get(hpc::Variant::kOpenMP).degraded_to.empty());
}

TEST(DegradationTest, AmcdFp64ErratumStaysFatalWithoutResilience) {
  // The paper's missing bars: with no fault config the generalized
  // FaultPlan quirk must reproduce the amcd FP64 build failure exactly as
  // the hard-coded path did — unavailable, not silently degraded.
  ExperimentConfig config = SoakConfig(true, 1);
  auto result = ExperimentRunner(config).RunBenchmark("amcd");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (hpc::Variant v : {hpc::Variant::kOpenCL, hpc::Variant::kOpenCLOpt}) {
    SCOPED_TRACE(std::string(hpc::VariantName(v)));
    const VariantResult& vr = result->Get(v);
    EXPECT_FALSE(vr.available);
    EXPECT_NE(vr.unavailable_reason.find("BuildFailure"), std::string::npos)
        << vr.unavailable_reason;
    EXPECT_NE(vr.unavailable_reason.find("erratum"), std::string::npos)
        << vr.unavailable_reason;
  }
}

TEST(DegradationTest, AmcdFp64DegradesToOpenMPWithResilienceActive) {
  ExperimentConfig config = SoakConfig(true, 1);
  config.fault.watchdog_sec = 1e6;  // resilience on, watchdog never fires
  auto result = ExperimentRunner(config).RunBenchmark("amcd");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (hpc::Variant v : {hpc::Variant::kOpenCL, hpc::Variant::kOpenCLOpt}) {
    SCOPED_TRACE(std::string(hpc::VariantName(v)));
    const VariantResult& vr = result->Get(v);
    ASSERT_TRUE(vr.available) << vr.unavailable_reason;
    EXPECT_EQ(vr.degraded_to, "OpenMP");
    EXPECT_TRUE(vr.validated);
  }
}

TEST(DegradationTest, LegacyKernelFallbackNotesPreserved) {
  // The generalized kernel ladder must render the exact note strings the
  // bespoke nbody/2dcon fallbacks produced (they appear in figure text).
  ExperimentConfig config = SoakConfig(true, 1);
  {
    auto result = ExperimentRunner(config).RunBenchmark("nbody");
    ASSERT_TRUE(result.ok());
    const VariantResult& vr = result->Get(hpc::Variant::kOpenCLOpt);
    ASSERT_TRUE(vr.available) << vr.unavailable_reason;
    EXPECT_NE(vr.note.find("CL_OUT_OF_RESOURCES for vector-gather kernel; "
                           "fell back to scalar rsqrt+unroll kernel"),
              std::string::npos)
        << vr.note;
  }
  {
    auto result = ExperimentRunner(config).RunBenchmark("2dcon");
    ASSERT_TRUE(result.ok());
    const VariantResult& vr = result->Get(hpc::Variant::kOpenCLOpt);
    ASSERT_TRUE(vr.available) << vr.unavailable_reason;
    EXPECT_NE(vr.note.find("CL_OUT_OF_RESOURCES for quad-output kernel; "
                           "fell back to row-dot kernel"),
              std::string::npos)
        << vr.note;
  }
}

// ---------------------------------------------------------------------------
// Repetition hygiene and observability.
// ---------------------------------------------------------------------------

TEST(RepHygieneTest, AllDroppedRepetitionsAreSkippedAndCounted) {
  ExperimentConfig config = SoakConfig(false, 1);
  config.fault.spec = "meter=1.0";  // every WT230 sample is dropped
  auto result = ExperimentRunner(config).RunBenchmark("vecop");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (hpc::Variant v : hpc::kAllVariants) {
    SCOPED_TRACE(std::string(hpc::VariantName(v)));
    const VariantResult& vr = result->Get(v);
    ASSERT_TRUE(vr.available);
    EXPECT_EQ(vr.failed_repetitions, config.repetitions);
    // Failed repetitions never poison the statistics: with zero surviving
    // windows the stats stay at zero instead of NaN.
    EXPECT_EQ(vr.power_mean_w, 0.0);
    EXPECT_EQ(vr.power_stddev_w, 0.0);
    EXPECT_NE(vr.note.find("all power repetitions failed"), std::string::npos)
        << vr.note;
  }
}

TEST(RepHygieneTest, NoFailedRepetitionsWithoutInjection) {
  ExperimentConfig config = SoakConfig(false, 1);
  auto result = ExperimentRunner(config).RunBenchmark("vecop");
  ASSERT_TRUE(result.ok());
  for (hpc::Variant v : hpc::kAllVariants) {
    EXPECT_EQ(result->Get(v).failed_repetitions, 0);
    EXPECT_GT(result->Get(v).power_mean_w, 0.0);
  }
}

TEST(ObservabilityTest, FaultEventsReachRecorder) {
  ExperimentConfig config = SoakConfig(false, 1);
  config.fault.seed = 11;
  config.fault.rate = 0.1;
  obs::Recorder recorder;
  config.recorder = &recorder;
  auto result = ExperimentRunner(config).RunBenchmark("vecop");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<obs::FaultRecord> faults = recorder.faults();
  ASSERT_FALSE(faults.empty());
  int ladder_events = 0;
  for (const obs::FaultRecord& f : faults) {
    EXPECT_FALSE(f.site.empty());
    EXPECT_FALSE(f.action.empty());
    // Keys are <benchmark>/<what>: the benchmark prefix appears once.
    EXPECT_EQ(f.key.rfind("vecop/", 0), 0u) << f.key;
    EXPECT_NE(f.key.rfind("vecop/vecop/", 0), 0u) << f.key;
    if (f.action == "fell-back") EXPECT_EQ(f.site, "degrade") << f.key;
    if (f.site == "retry" || f.site == "degrade") ++ladder_events;
  }
  // vecop has no kernel ladder, so these come from the variant ladder.
  EXPECT_GT(ladder_events, 0) << "config must exercise harness rungs";
}

}  // namespace
}  // namespace malisim::harness
