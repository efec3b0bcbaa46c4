// HostProf contract tests: phase-span self/total accounting, null-safety,
// interpreter host-time attribution through a real harness run, the
// >= 90 % attributed-wall-time acceptance criterion, the <= 3 % sampling
// overhead contract, the mem/replay split of VM from cache/DRAM time, and
// the hotspots / collapsed-stack render formats.
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "hpc/benchmark.h"
#include "obs/host_prof.h"
#include "obs/obs_options.h"
#include "obs/recorder.h"

namespace malisim::obs {
namespace {

int PhaseIdx(HostPhase phase) { return static_cast<int>(phase); }

TEST(HostProfTest, PhaseSpanSplitsSelfFromChildren) {
  HostProf prof;
  {
    HostProf::PhaseSpan outer(&prof, HostPhase::kVariant);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      HostProf::PhaseSpan inner(&prof, HostPhase::kExecute);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const HostProf::Snapshot s = prof.TakeSnapshot();
  const HostProf::PhaseStat& variant = s.phases[PhaseIdx(HostPhase::kVariant)];
  const HostProf::PhaseStat& execute = s.phases[PhaseIdx(HostPhase::kExecute)];
  EXPECT_EQ(variant.count, 1u);
  EXPECT_EQ(execute.count, 1u);
  // The leaf has no children: self == total. The parent's self excludes
  // exactly the nested span's elapsed time (same clock reads, so exact).
  EXPECT_EQ(execute.self_ns, execute.total_ns);
  EXPECT_GE(variant.total_ns, execute.total_ns);
  EXPECT_EQ(variant.self_ns, variant.total_ns - execute.total_ns);
  // Only the outer span closed at top level, so it alone is root coverage.
  EXPECT_EQ(s.root_total_ns, variant.total_ns);
  EXPECT_GT(prof.AttributedFraction(
                static_cast<double>(variant.total_ns) * 1e-9),
            0.99);
}

TEST(HostProfTest, SiblingSpansBothCountAsRoots) {
  HostProf prof;
  { HostProf::PhaseSpan a(&prof, HostPhase::kSetup); }
  { HostProf::PhaseSpan b(&prof, HostPhase::kMerge); }
  const HostProf::Snapshot s = prof.TakeSnapshot();
  EXPECT_EQ(s.root_total_ns,
            s.phases[PhaseIdx(HostPhase::kSetup)].total_ns +
                s.phases[PhaseIdx(HostPhase::kMerge)].total_ns);
}

TEST(HostProfTest, NullProfilerIsInert) {
  // Instrumentation sites pass a null HostProf when profiling is off; the
  // span and the interp profile must be no-ops, not crashes.
  HostProf::PhaseSpan span(nullptr, HostPhase::kExecute);
  kir::Program program;
  InterpProfile interp(nullptr, program, 4);
  EXPECT_EQ(interp.sink(0), nullptr);
  EXPECT_EQ(interp.sink(3), nullptr);
  interp.Merge("noop");  // must not touch anything
}

TEST(HostProfTest, RecorderBuildsProfilerOnlyWhenRequested) {
  Recorder plain;
  EXPECT_EQ(plain.host_prof(), nullptr);

  ObsOptions sampled;
  sampled.host_prof = true;
  sampled.host_prof_period = 64;
  Recorder sampled_recorder(sampled);
  ASSERT_NE(sampled_recorder.host_prof(), nullptr);
  EXPECT_EQ(sampled_recorder.host_prof()->period(), 64u);

  ObsOptions exact;
  exact.host_prof = true;
  exact.host_prof_exact = true;
  exact.host_prof_period = 256;  // exact mode overrides the period
  Recorder exact_recorder(exact);
  ASSERT_NE(exact_recorder.host_prof(), nullptr);
  EXPECT_EQ(exact_recorder.host_prof()->period(), 1u);
}

/// One quick dmmm run with the self-profiler attached; shared by the
/// attribution / overhead / rendering tests below.
HostProf::Snapshot ProfiledDmmmRun(bool exact, double* wall_sec) {
  ObsOptions options;
  options.host_prof = true;
  options.host_prof_exact = exact;
  Recorder recorder(options);

  harness::ExperimentConfig config;
  config.sizes = hpc::ProblemSizes::Quick();
  config.repetitions = 2;
  config.recorder = &recorder;
  harness::ExperimentRunner runner(config);

  const auto start = std::chrono::steady_clock::now();
  auto result = runner.RunBenchmark("dmmm");
  *wall_sec = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return recorder.host_prof()->TakeSnapshot();
}

TEST(HostProfTest, HarnessRunMeetsAttributionAndOverheadContracts) {
  double wall_sec = 0.0;
  const HostProf::Snapshot s = ProfiledDmmmRun(/*exact=*/false, &wall_sec);

  // The pipeline phases all closed at least once.
  EXPECT_GT(s.phases[PhaseIdx(HostPhase::kSetup)].count, 0u);
  EXPECT_GT(s.phases[PhaseIdx(HostPhase::kCompile)].count, 0u);
  EXPECT_GT(s.phases[PhaseIdx(HostPhase::kEnqueue)].count, 0u);
  EXPECT_GT(s.phases[PhaseIdx(HostPhase::kExecute)].count, 0u);
  EXPECT_GT(s.phases[PhaseIdx(HostPhase::kVariant)].count, 0u);
  EXPECT_GT(s.phases[PhaseIdx(HostPhase::kPowerAccounting)].count, 0u);

  // Interpreter attribution landed: opcode and basic-block tables filled,
  // samples were far sparser than steps (period 256 default).
  EXPECT_GT(s.interp_ns, 0u);
  EXPECT_FALSE(s.opcodes.empty());
  EXPECT_FALSE(s.blocks.empty());
  EXPECT_GT(s.interp_steps, s.interp_samples);

  // Acceptance criterion: >= 90 % of measured host wall time attributed to
  // top-level phase spans.
  const double fraction =
      static_cast<double>(s.root_total_ns) * 1e-9 / wall_sec;
  EXPECT_GE(fraction, 0.90) << "attributed " << s.root_total_ns
                            << " ns of " << wall_sec << " s wall";

  // Overhead contract: the sampled counter path costs <= 3 % of the
  // interpreter time it measures.
  const double overhead = static_cast<double>(s.interp_samples) *
                          s.sample_cost_ns /
                          static_cast<double>(s.interp_ns);
  EXPECT_LE(overhead, 0.03);
}

TEST(HostProfTest, ExactModeSamplesEveryStep) {
  double wall_sec = 0.0;
  const HostProf::Snapshot s = ProfiledDmmmRun(/*exact=*/true, &wall_sec);
  EXPECT_GT(s.interp_ns, 0u);
  EXPECT_GT(s.interp_steps, 0u);
  // Period 1: every attributed step took its own clock sample (the extra
  // samples are the per-launch priming ticks).
  EXPECT_GE(s.interp_samples, s.interp_steps);
}

/// Runs every benchmark once at quick sizes; returns the results.
std::vector<harness::BenchmarkResults> QuickSweep(Recorder* recorder) {
  harness::ExperimentConfig config;
  config.sizes = hpc::ProblemSizes::Quick();
  config.repetitions = 1;
  config.recorder = recorder;
  harness::ExperimentRunner runner(config);
  std::vector<harness::BenchmarkResults> results;
  for (const std::string& name : hpc::RegisteredBenchmarks()) {
    auto r = runner.RunBenchmark(name);
    EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    if (r.ok()) results.push_back(*std::move(r));
  }
  return results;
}

TEST(HostProfTest, MemReplaySplitsCacheTimeOutOfVmExec) {
  ObsOptions options;
  options.host_prof = true;
  Recorder profiled(options);
  const std::vector<harness::BenchmarkResults> with_prof =
      QuickSweep(&profiled);
  const HostProf::Snapshot s = profiled.host_prof()->TakeSnapshot();
  const HostProf::PhaseStat& replay = s.phases[PhaseIdx(HostPhase::kMemReplay)];
  const HostProf::PhaseStat& vm = s.phases[PhaseIdx(HostPhase::kVmExec)];
  EXPECT_EQ(replay.name, "mem/replay");
  EXPECT_GT(replay.count, 0u);
  EXPECT_GT(replay.total_ns, 0u);
  EXPECT_EQ(replay.self_ns, replay.total_ns);  // a leaf phase
  // Every replay span nests in a vm/exec span on the serial engine, so
  // vm/exec's self time is exactly its total minus the replay time.
  EXPECT_EQ(vm.self_ns + replay.total_ns, vm.total_ns);

  // Inert with profiling off: no profiler, and not one modelled number
  // moves.
  Recorder plain;
  ASSERT_EQ(plain.host_prof(), nullptr);
  const std::vector<harness::BenchmarkResults> without_prof =
      QuickSweep(&plain);
  ASSERT_EQ(with_prof.size(), without_prof.size());
  for (std::size_t b = 0; b < with_prof.size(); ++b) {
    for (const hpc::Variant v : hpc::kAllVariants) {
      EXPECT_EQ(with_prof[b].Get(v).seconds, without_prof[b].Get(v).seconds)
          << with_prof[b].name;
      EXPECT_EQ(with_prof[b].Get(v).energy_j, without_prof[b].Get(v).energy_j)
          << with_prof[b].name;
    }
  }
}

TEST(HostProfTest, HotspotsTableAndCollapsedFormats) {
  double wall_sec = 0.0;
  const HostProf::Snapshot s = ProfiledDmmmRun(/*exact=*/false, &wall_sec);

  const std::string table = HostProf::HotspotsTable(s, wall_sec);
  EXPECT_NE(table.find("host-side hotspots"), std::string::npos);
  EXPECT_NE(table.find("execute"), std::string::npos);
  EXPECT_NE(table.find("Interpreter opcodes"), std::string::npos);
  EXPECT_NE(table.find("Interpreter basic blocks"), std::string::npos);
  EXPECT_NE(table.find("interp sampling:"), std::string::npos);

  // Collapsed-stack dump: "frame;frame;... <count>" lines under the two
  // roots, with the interp time nested below execute.
  const std::string collapsed = HostProf::Collapsed(s);
  EXPECT_NE(collapsed.find("malisim;execute;interp;"), std::string::npos);
  EXPECT_NE(collapsed.find("malisim-blocks;"), std::string::npos);
  std::size_t pos = 0;
  int lines = 0;
  while (pos < collapsed.size()) {
    const std::size_t eol = collapsed.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated collapsed line";
    const std::string line = collapsed.substr(pos, eol - pos);
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("malisim", 0), 0u) << line;
    // The trailing token is the sample weight: digits only.
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      EXPECT_TRUE(line[i] >= '0' && line[i] <= '9') << line;
    }
    pos = eol + 1;
    ++lines;
  }
  EXPECT_GT(lines, 2);
}

}  // namespace
}  // namespace malisim::obs
