// Golden-file regression test for the figure pipeline: runs a reduced
// Fig. 2/3/4 sweep (three benchmarks at both precisions, smaller problem
// sizes) and the full nine-benchmark sweep at the --quick sizes, and
// compares a fully-precise CSV rendering of the results against checked-in
// golden files with ZERO tolerance. Any change to modelled seconds, power,
// or energy — however small — shows up as a diff.
//
// Regenerating the goldens (after an intentional model change):
//
//   MALISIM_UPDATE_GOLDEN=1 ./build/tests/harness/golden_figures_test
//
// rewrites tests/harness/golden/*.csv in the source tree; re-run the test
// without the variable to confirm, then commit the updated CSVs with the
// change that caused them.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/figures.h"

#ifndef MALISIM_GOLDEN_DIR
#error "MALISIM_GOLDEN_DIR must point at tests/harness/golden"
#endif

namespace malisim::harness {
namespace {

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

std::string GoldenPath(const std::string& sweep, bool fp64) {
  return std::string(MALISIM_GOLDEN_DIR) + "/" + sweep + "_" +
         (fp64 ? "fp64" : "fp32") + ".csv";
}

/// Compares `csv` with the golden file at `path` byte for byte, or
/// rewrites the golden when MALISIM_UPDATE_GOLDEN is set.
void ExpectMatchesGolden(const std::string& csv, const std::string& path) {
  if (std::getenv("MALISIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << csv;
    out.close();
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run with MALISIM_UPDATE_GOLDEN=1 to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  // Exact comparison, zero tolerance: modelled numbers are deterministic,
  // so the strings must match byte for byte.
  EXPECT_EQ(golden.str(), csv)
      << "figure sweep drifted from golden; if the model change is "
         "intentional, regenerate with MALISIM_UPDATE_GOLDEN=1";
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

/// All nine benchmarks at ProblemSizes::Quick() with the figure binaries'
/// defaults: the cells `fig2_performance --quick` reports, at full
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
