// Golden-file regression test for the figure pipeline: runs a reduced
// Fig. 2/3/4 sweep (three benchmarks at both precisions, smaller problem
// sizes), the full nine-benchmark sweep at the --quick sizes and the same
// sweep under injected faults, and compares fully-precise renderings of
// the results against checked-in golden files with ZERO tolerance. Any
// change to modelled seconds, power, or energy — however small — shows up
// as a diff.
//
// Regenerating the goldens (after an intentional model change):
//
//   MALISIM_UPDATE_GOLDEN=1 ./build/tests/harness/golden_figures_test
//
// rewrites tests/harness/golden/* in the source tree; re-run the test
// without the variable to confirm, then commit the updated CSVs with the
// change that caused them.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_file.h"
#include "harness/experiment.h"
#include "harness/figures.h"

#ifndef MALISIM_GOLDEN_DIR
#error "MALISIM_GOLDEN_DIR must point at tests/harness/golden"
#endif

namespace malisim::harness {
namespace {

using golden::ExpectMatchesGolden;

ExperimentConfig QuickConfig(bool fp64) {
  ExperimentConfig config;
  config.fp64 = fp64;
  config.repetitions = 5;
  config.sizes.vecop_n = 1 << 13;
  config.sizes.hist_n = 1 << 13;
  config.sizes.dmmm_n = 32;
  return config;
}

const std::vector<std::string>& SweepBenchmarks() {
  static const std::vector<std::string> kNames = {"vecop", "hist", "dmmm"};
  return kNames;
}

std::string GoldenPath(const std::string& sweep, bool fp64,
                       const char* extension = ".csv") {
  return std::string(MALISIM_GOLDEN_DIR) + "/" + sweep + "_" +
         (fp64 ? "fp64" : "fp32") + extension;
}

class GoldenFiguresTest : public ::testing::TestWithParam<bool> {};

TEST_P(GoldenFiguresTest, ReducedSweepMatchesGoldenExactly) {
  const bool fp64 = GetParam();
  ExperimentRunner runner(QuickConfig(fp64));
  std::vector<BenchmarkResults> results;
  for (const std::string& name : SweepBenchmarks()) {
    auto r = runner.RunBenchmark(name);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(*std::move(r));
  }
  ExpectMatchesGolden(RenderFullPrecisionCsv(results, fp64),
                      GoldenPath("reduced_sweep", fp64));
}

/// All nine benchmarks at ProblemSizes::Quick() with malisim-fig's
/// defaults: the cells `malisim-fig fig2 --quick` reports, at full
/// precision.
TEST_P(GoldenFiguresTest, QuickSweepMatchesGoldenExactly) {
  const bool fp64 = GetParam();
  ExperimentConfig config;
  config.sizes = hpc::ProblemSizes::Quick();
  config.fp64 = fp64;
  ExperimentRunner runner(config);
  auto results = runner.RunAll();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ExpectMatchesGolden(RenderFullPrecisionCsv(*results, fp64),
                      GoldenPath("quick_sweep", fp64));
}

/// Every cell of a fault-injected quick sweep (with the Hetero column):
/// whether it ran, its modelled seconds, the rung it degraded to and its
/// notes. This pins the harness and kernel degradation ladders under
/// injected faults, which the fault-free goldens above never walk.
std::string RenderLadderCells(const std::vector<BenchmarkResults>& results,
                              bool fp64) {
  std::string out =
      "benchmark|precision|variant|available|seconds|degraded_to|"
      "unavailable_reason|note\n";
  for (const BenchmarkResults& r : results) {
    for (hpc::Variant v : hpc::kAllVariantsWithHetero) {
      const VariantResult& vr = r.Get(v);
      char seconds[32];
      std::snprintf(seconds, sizeof(seconds), "%.17g", vr.seconds);
      out += r.name + "|" + (fp64 ? "fp64" : "fp32") + "|" +
             std::string(hpc::VariantName(v)) + "|" +
             (vr.available ? "1" : "0") + "|" + seconds + "|" +
             vr.degraded_to + "|" + vr.unavailable_reason + "|" + vr.note +
             "\n";
    }
  }
  return out;
}

TEST_P(GoldenFiguresTest, FaultInjectedQuickSweepMatchesGoldenExactly) {
  const bool fp64 = GetParam();
  ExperimentConfig config;
  config.sizes = hpc::ProblemSizes::Quick();
  config.fp64 = fp64;
  config.include_hetero = true;
  config.fault.seed = 7;
  config.fault.rate = 0.05;
  ExperimentRunner runner(config);
  auto results = runner.RunAll();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ExpectMatchesGolden(RenderLadderCells(*results, fp64),
                      GoldenPath("fault_quick_sweep", fp64, ".txt"));
}

INSTANTIATE_TEST_SUITE_P(Precisions, GoldenFiguresTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "fp64" : "fp32";
                         });

/// The summary statistics derive purely from the per-variant metrics, so
/// they are covered by the CSV; this guards the derived headline plumbing
/// against NaN/zero regressions without a second golden.
TEST(GoldenFiguresTest, SummaryStaysFinite) {
  ExperimentRunner runner(QuickConfig(false));
  std::vector<BenchmarkResults> results;
  for (const std::string& name : SweepBenchmarks()) {
    auto r = runner.RunBenchmark(name);
    ASSERT_TRUE(r.ok());
    results.push_back(*std::move(r));
  }
  const Summary s = ComputeSummary(results);
  EXPECT_GT(s.openmp_avg_speedup, 0.0);
  EXPECT_GT(s.openclopt_avg_speedup, 0.0);
  EXPECT_GT(s.openclopt_avg_energy, 0.0);
}

}  // namespace
}  // namespace malisim::harness
