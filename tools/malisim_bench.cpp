// malisim-bench: regression detection over BENCH_*.json records.
//
// Loads a baseline and a candidate record (emitted by malisim-fig
// via --bench-json=PATH), computes per-metric relative deltas with
// direction-aware verdicts (a slower kernel is a regression, a faster one
// an improvement, a changed fault count is reported but never a verdict),
// prints a ranked report and exits non-zero when any metric regressed
// beyond its threshold — that exit code is what gates CI.
//
// Usage:
//   malisim-bench --baseline=results/baseline.json --candidate=BENCH.json
//                 [--threshold=0.05] [--threshold-spec=prefix=val[,...]]
//                 [--json] [--top=N]
//
// Exit codes: 0 = no regressions, 1 = regressions found, 2 = usage or
// load error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/log.h"
#include "common/status.h"
#include "obs/bench_report.h"

namespace malisim {
namespace {

struct CliOptions {
  std::string baseline;
  std::string candidate;
  obs::CompareOptions compare;
  bool json = false;
  std::size_t top = 25;
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --baseline=PATH --candidate=PATH [--threshold=0.05]\n"
      "          [--threshold-spec=prefix=val[,...]] [--json] [--top=N]\n"
      "          [--log-level=LEVEL]\n"
      "\n"
      "Compares two malisim-bench-v1 records and exits 1 when any metric\n"
      "regressed beyond its relative threshold. --threshold-spec overrides\n"
      "the threshold for metrics matching a name prefix, longest match\n"
      "wins, e.g. --threshold-spec=hist/=0.10,cell/dmmm/=0.02\n"
      "Measured-host throughput metrics (sim_throughput_host/) default to\n"
      "a loose 3.0 threshold — they are wall-clock, not modelled — which\n"
      "any --threshold-spec entry for that prefix overrides.\n",
      argv0);
}

bool ParseThresholdSpec(const std::string& spec, obs::CompareOptions* out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.rfind('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr,
                   "malisim-bench: threshold-spec entry '%s' is not of the "
                   "form prefix=value\n",
                   entry.c_str());
      return false;
    }
    char* end = nullptr;
    const std::string value_text = entry.substr(eq + 1);
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0' || value < 0.0) {
      std::fprintf(stderr,
                   "malisim-bench: threshold '%s' is not a number >= 0\n",
                   value_text.c_str());
      return false;
    }
    out->prefix_thresholds.emplace_back(entry.substr(0, eq), value);
  }
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  // Default loose thresholds for the measured-host sections: those numbers
  // are wall-clock (machine- and load-dependent), so only a 3x swing is
  // worth flagging. Flattened metric names carry their category prefix
  // (gauge/, counter/, hist/), so each category needs its own entry.
  // Prepended so any user --threshold-spec entry with the same or a longer
  // prefix wins (ThresholdFor prefers the later, longer match).
  for (const char* category : {"gauge/", "counter/", "hist/"}) {
    options->compare.prefix_thresholds.emplace_back(
        std::string(category) + "sim_throughput_host/", 3.0);
    options->compare.prefix_thresholds.emplace_back(
        std::string(category) + "serve_host/", 3.0);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--baseline=", 0) == 0) {
      options->baseline = arg.substr(11);
    } else if (arg.rfind("--candidate=", 0) == 0) {
      options->candidate = arg.substr(12);
    } else if (arg.rfind("--threshold=", 0) == 0) {
      char* end = nullptr;
      options->compare.threshold = std::strtod(arg.c_str() + 12, &end);
      if (end == arg.c_str() + 12 || *end != '\0' ||
          options->compare.threshold < 0.0) {
        std::fprintf(stderr,
                     "malisim-bench: --threshold must be a number >= 0\n");
        return false;
      }
    } else if (arg.rfind("--threshold-spec=", 0) == 0) {
      if (!ParseThresholdSpec(arg.substr(17), &options->compare)) {
        return false;
      }
    } else if (arg == "--json") {
      options->json = true;
    } else if (arg.rfind("--log-level=", 0) == 0) {
      // main() ran InitLogLevelFromEnv first, so the flag wins over the env.
      if (!ApplyLogLevelFlag(arg.substr(12))) {
        std::fprintf(stderr,
                     "malisim-bench: unknown --log-level '%s' "
                     "(debug|info|warn|error|off)\n",
                     arg.c_str() + 12);
        return false;
      }
    } else if (arg.rfind("--top=", 0) == 0) {
      const long n = std::strtol(arg.c_str() + 6, nullptr, 10);
      options->top = n < 1 ? 1 : static_cast<std::size_t>(n);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "malisim-bench: unknown flag '%s'\n", arg.c_str());
      PrintUsage(argv[0]);
      return false;
    }
  }
  if (options->baseline.empty() || options->candidate.empty()) {
    std::fprintf(stderr,
                 "malisim-bench: --baseline and --candidate are required\n");
    PrintUsage(argv[0]);
    return false;
  }
  return true;
}

int Run(const CliOptions& options) {
  StatusOr<obs::ParsedBenchReport> baseline =
      obs::LoadBenchReport(options.baseline);
  if (!baseline.ok()) {
    std::fprintf(stderr, "malisim-bench: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  StatusOr<obs::ParsedBenchReport> candidate =
      obs::LoadBenchReport(options.candidate);
  if (!candidate.ok()) {
    std::fprintf(stderr, "malisim-bench: %s\n",
                 candidate.status().ToString().c_str());
    return 2;
  }

  const obs::BenchComparison comparison =
      obs::CompareBenchReports(*baseline, *candidate, options.compare);
  if (options.json) {
    std::fputs(obs::ComparisonJson(comparison).c_str(), stdout);
  } else {
    std::printf("baseline:  %s (%s, git %s)\n", options.baseline.c_str(),
                baseline->name.c_str(), baseline->git_sha.c_str());
    std::printf("candidate: %s (%s, git %s)\n", options.candidate.c_str(),
                candidate->name.c_str(), candidate->git_sha.c_str());
    std::fputs(obs::ComparisonText(comparison, options.top).c_str(), stdout);
  }
  return comparison.HasRegressions() ? 1 : 0;
}

}  // namespace
}  // namespace malisim

int main(int argc, char** argv) {
  malisim::InitLogLevelFromEnv();
  malisim::CliOptions options;
  if (!malisim::ParseArgs(argc, argv, &options)) return 2;
  return malisim::Run(options);
}
