// malisim-fig: the one experiment driver. Regenerates the paper's Figs. 2-4
// and §V-D summary, the eight §III ablations and the two extension studies
// (DESIGN.md §5), named as positional arguments and run in order:
//
//   malisim-fig fig2 fig3 fig4 summary [--quick] [--csv] [--fp32|--fp64] ...
//   malisim-fig ablation-unrolling scaling --csv
//
// The figure views share one sweep per precision, so any number of them
// costs one simulation of each precision. A run with no experiment prints
// the registry.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/paper_reference.h"
#include "harness/figures.h"

namespace mb = malisim::bench;
namespace mh = malisim::harness;

namespace {

using PaperTable = const std::map<std::string, mb::PaperRow>& (*)();
using Metric = double (mh::BenchmarkResults::*)(malisim::hpc::Variant) const;

/// Renders a paper-vs-model comparison table for the given metric.
std::string CompareWithPaper(const std::vector<mh::BenchmarkResults>& results,
                             const std::map<std::string, mb::PaperRow>& paper,
                             Metric metric) {
  using malisim::hpc::Variant;
  malisim::Table table({"benchmark", "paper OpenMP", "model OpenMP",
                        "paper OpenCL", "model OpenCL", "paper Opt",
                        "model Opt"});
  for (const mh::BenchmarkResults& r : results) {
    auto it = paper.find(r.name);
    if (it == paper.end()) continue;
    const mb::PaperRow& row = it->second;
    table.BeginRow();
    table.AddCell(r.name);
    auto add_pair = [&](double paper_v, Variant v) {
      if (std::isnan(paper_v)) {
        table.AddMissing();
      } else {
        table.AddNumber(paper_v, 2);
      }
      const double model_v = (r.*metric)(v);
      if (model_v <= 0.0) {
        table.AddMissing();
      } else {
        table.AddNumber(model_v, 2);
      }
    };
    add_pair(row.openmp, Variant::kOpenMP);
    add_pair(row.opencl, Variant::kOpenCL);
    add_pair(row.opencl_opt, Variant::kOpenCLOpt);
  }
  return table.ToAscii();
}

/// One of Figs. 2-4: a metric normalized to Serial, per precision.
struct FigureView {
  int figure;
  const char* what;
  malisim::Table (*table)(const std::vector<mh::BenchmarkResults>&);
  Metric metric;
  /// Paper values to compare against; null where the paper gives none.
  PaperTable paper_sp;
  PaperTable paper_dp;
  /// Fig. 4 closes each precision with the §V-D averages.
  bool summary_line;
};

constexpr FigureView kFig2{2, "speedup over Serial", mh::Fig2Speedup,
                           &mh::BenchmarkResults::SpeedupVsSerial,
                           mb::Fig2aSpeedup, mb::Fig2bSpeedup, false};
constexpr FigureView kFig3{3, "power normalized to Serial", mh::Fig3Power,
                           &mh::BenchmarkResults::PowerVsSerial,
                           mb::Fig3aPower, nullptr, false};
constexpr FigureView kFig4{4, "energy-to-solution normalized to Serial",
                           mh::Fig4Energy,
                           &mh::BenchmarkResults::EnergyVsSerial,
                           mb::Fig4aEnergy, nullptr, true};

int RunFigure(const FigureView& view, const mb::BenchOptions& options,
              mb::Sweeps& sweeps) {
  int rc = 0;
  for (const bool fp64 : {false, true}) {
    if (!(fp64 ? options.run_fp64 : options.run_fp32)) continue;
    const mb::SweepData* sweep = sweeps.Get(fp64);
    if (sweep == nullptr) {
      rc = 1;
      continue;
    }
    const std::vector<mh::BenchmarkResults>& results = sweep->results;
    const std::string sub =
        "Fig. " + std::to_string(view.figure) +
        (fp64 ? "(b) double-precision" : "(a) single-precision");
    const malisim::Table table = view.table(results);
    if (options.csv) {
      std::printf("# %s %s\n%s\n", sub.c_str(), view.what,
                  table.ToCsv().c_str());
      continue;
    }
    std::printf("%s\n", mh::RenderFigure(sub + ": " + view.what, table,
                                         results)
                            .c_str());
    const PaperTable paper = fp64 ? view.paper_dp : view.paper_sp;
    if (paper != nullptr) {
      std::printf("paper vs model:\n%s\n",
                  CompareWithPaper(results, paper(), view.metric).c_str());
    }
    if (view.summary_line) {
      const mh::Summary summary = mh::ComputeSummary(results);
      std::printf(
          "summary (%s): OpenMP speedup %.2fx (paper ~1.7x SP), OpenMP power "
          "%.2fx (paper ~1.31x SP), OpenCL energy %.2f (paper ~0.56), Opt "
          "speedup %.2fx, Opt energy %.2f (paper 0.28 SP / 0.36 DP)\n\n",
          fp64 ? "fp64" : "fp32", summary.openmp_avg_speedup,
          summary.openmp_avg_power, summary.opencl_avg_energy,
          summary.openclopt_avg_speedup, summary.openclopt_avg_energy);
    }
  }
  return rc;
}

int Fig2(const mb::BenchOptions& options, mb::Sweeps& sweeps) {
  return RunFigure(kFig2, options, sweeps);
}
int Fig3(const mb::BenchOptions& options, mb::Sweeps& sweeps) {
  return RunFigure(kFig3, options, sweeps);
}
int Fig4(const mb::BenchOptions& options, mb::Sweeps& sweeps) {
  return RunFigure(kFig4, options, sweeps);
}

/// The paper's §V-D headline: "single-precision and double-precision
/// OpenCL Opt benchmarks achieve a speedup of 8.7x over the corresponding
/// Serial benchmarks running on the Cortex-A15 core, while consuming only
/// 32% of the energy." Always reads both precisions.
int Summary(const mb::BenchOptions&, mb::Sweeps& sweeps) {
  const mb::SweepData* sp_sweep = sweeps.Get(false);
  if (sp_sweep == nullptr) return 1;
  const mb::SweepData* dp_sweep = sweeps.Get(true);
  if (dp_sweep == nullptr) return 1;
  const std::vector<mh::BenchmarkResults>& sp = sp_sweep->results;
  const std::vector<mh::BenchmarkResults>& dp = dp_sweep->results;
  const mh::Summary ssp = mh::ComputeSummary(sp);
  const mh::Summary sdp = mh::ComputeSummary(dp);
  const mh::Headline headline = mh::ComputeHeadline(sp, dp);

  std::printf("== Paper §V-D summary, paper vs model ==\n");
  std::printf("%-46s %8s %8s\n", "statistic", "paper", "model");
  std::printf("%-46s %8s %8.2f\n", "OpenMP avg speedup (SP)", "1.70", ssp.openmp_avg_speedup);
  std::printf("%-46s %8s %8.2f\n", "OpenMP avg power vs Serial (SP)", "1.31", ssp.openmp_avg_power);
  std::printf("%-46s %8s %8.2f\n", "OpenCL avg energy vs Serial (SP)", "0.56", ssp.opencl_avg_energy);
  std::printf("%-46s %8s %8.2f\n", "OpenCL avg energy vs Serial (DP)", "0.56", sdp.opencl_avg_energy);
  std::printf("%-46s %8s %8.2f\n", "OpenCL Opt avg energy vs Serial (SP)", "0.28", ssp.openclopt_avg_energy);
  std::printf("%-46s %8s %8.2f\n", "OpenCL Opt avg energy vs Serial (DP)", "0.36", sdp.openclopt_avg_energy);
  std::printf("%-46s %8s %8.2f\n", "OpenCL Opt avg speedup (SP+DP, headline)", "8.70", headline.avg_speedup);
  std::printf("%-46s %8s %8.2f\n", "OpenCL Opt avg energy (SP+DP, headline)", "0.32", headline.avg_energy);
  return 0;
}

struct Experiment {
  const char* name;
  const char* summary;
  mb::ExperimentFn run;
};

constexpr Experiment kExperiments[] = {
    {"fig2", "Fig. 2(a)/(b): speedup over Serial", Fig2},
    {"fig3", "Fig. 3(a)/(b): board power vs Serial", Fig3},
    {"fig4", "Fig. 4(a)/(b): energy-to-solution vs Serial", Fig4},
    {"summary", "§V-D headline statistics (always SP + DP)", Summary},
    {"ablation-memory-mapping", "A1 §III-A map/unmap vs copy",
     mb::AblationMemoryMapping},
    {"ablation-workgroup-size", "A2 §III-A local-size sweep + driver pick",
     mb::AblationWorkgroupSize},
    {"ablation-vector-size", "A3 §III-B scalar..float16 sweep",
     mb::AblationVectorSize},
    {"ablation-unrolling", "A4 §III-B unroll factors + remainder tax",
     mb::AblationUnrolling},
    {"ablation-qualifiers", "A5 §III-B const/restrict",
     mb::AblationQualifiers},
    {"ablation-data-layout", "A6 §III-B AOS vs SOA", mb::AblationDataLayout},
    {"ablation-global-size", "A7 §III-A global-size guideline",
     mb::AblationGlobalSize},
    {"ablation-local-memory", "A8 §III-B __local tiling vs registers",
     mb::AblationLocalMemory},
    {"scaling", "extension: problem-size scaling, GPU payoff crossovers",
     mb::ScalingStudy},
    {"characteristics", "measured §IV-A workload properties (--fp64: DP)",
     mb::BenchmarkCharacteristics},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  const mb::BenchOptions options = mb::ParseOptions(argc, argv, &names);
  std::vector<const Experiment*> plan;
  for (const std::string& name : names) {
    const Experiment* found = nullptr;
    for (const Experiment& e : kExperiments) {
      if (name == e.name) found = &e;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "unknown experiment '%s'\n", name.c_str());
      return 2;
    }
    plan.push_back(found);
  }
  if (plan.empty()) {
    std::fprintf(stderr, "usage: malisim-fig EXPERIMENT... [FLAG...]\n");
    for (const Experiment& e : kExperiments) {
      std::fprintf(stderr, "  %-24s %s\n", e.name, e.summary);
    }
    return 2;
  }

  mb::Sweeps sweeps(options);
  int rc = 0;
  for (const Experiment* e : plan) rc |= e->run(options, sweeps);
  if (rc == 0) {
    const malisim::Status written = sweeps.WriteBenchJson("malisim-fig");
    if (!written.ok()) {
      std::fprintf(stderr, "bench-json error: %s\n",
                   written.ToString().c_str());
      rc = 1;
    }
  }
  return rc;
}
