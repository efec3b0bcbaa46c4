// BENCH_*.json: the schema-versioned, machine-comparable record one
// benchmark binary emits per run (--bench-json=PATH), and the comparison
// engine behind the malisim-bench CLI.
//
// A record carries provenance (git sha, fault plan hash, run options), one
// row per (benchmark, variant, precision) cell with the paper's three
// figures of merit plus derived energy-to-solution and energy-delay
// product, the model-vs-paper reference deltas, and the full metrics
// snapshot (gauges / counters / log-scale histograms) aggregated from the
// run's observability recorder.
//
// Byte-identity contract: a record is a pure function of (code, seed,
// problem sizes, fault options). Host thread count, wall-clock time and
// filesystem paths are deliberately excluded, so the same binary at
// --threads 1 and --threads 4 emits byte-identical files — that identity
// is regression-tested. Provenance fields (git sha) are metadata:
// malisim-bench never compares them numerically.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace malisim::obs {

inline constexpr std::string_view kBenchReportSchema = "malisim-bench-v1";

/// One (benchmark, variant, precision) measurement cell.
struct BenchCell {
  std::string benchmark;
  std::string variant;    // "Serial" / "OpenMP" / "OpenCL" / "OpenCL Opt"
  std::string precision;  // "fp32" / "fp64"
  bool available = false;
  std::string unavailable_reason;
  double seconds = 0.0;
  double power_mean_w = 0.0;
  double power_stddev_w = 0.0;
  double energy_j = 0.0;
  /// Energy-delay product (J*s): energy_j * seconds — the figure of merit
  /// that penalizes saving energy by running slower.
  double edp_js = 0.0;
  double speedup_vs_serial = 0.0;
  double power_vs_serial = 0.0;
  double energy_vs_serial = 0.0;
  int failed_repetitions = 0;
  std::string degraded_to;
  bool validated = false;
};

/// Model-vs-paper reference delta for one figure cell
/// (key "fig2/<benchmark>/<variant>/<precision>", etc.).
struct PaperDelta {
  std::string key;
  double paper = 0.0;
  double model = 0.0;
};

/// Simulator throughput for one precision sweep. The counts and modelled
/// seconds are order-independent sums over the recorder's kernel records,
/// so they obey the byte-identity contract; the host_* fields are measured
/// wall-clock and explicitly EXCLUDED from it (the bench-json identity
/// check zeroes them before comparing, and malisim-bench compares them
/// against a loose default threshold).
struct SimThroughput {
  std::string sweep;  // "fp32" / "fp64"
  // Deterministic (modelled) totals.
  std::uint64_t work_items = 0;
  std::uint64_t opcodes = 0;
  std::uint64_t launches = 0;
  double modelled_sec = 0.0;
  // Measured host wall-clock for the sweep and the derived rates.
  double host_sec = 0.0;
  double work_items_per_host_sec = 0.0;
  double opcodes_per_host_sec = 0.0;
  double host_sec_per_modelled_sec = 0.0;
};

struct BenchReportMeta {
  std::string name;             // emitting binary, e.g. "malisim-fig"
  std::string git_sha;          // provenance only, never compared
  std::string fault_plan_hash;  // hex digest of fault::FaultPlan::Hash()
  /// Sorted-on-emission (key, value) option strings. Anything that changes
  /// modelled numbers belongs here (seed, sizes, fault knobs); anything
  /// that must NOT (host threads, output paths) must stay out.
  std::vector<std::pair<std::string, std::string>> options;
};

/// Serializes one record. `cells` order is preserved (callers pass a
/// deterministic order); `paper_deltas` and all metric maps are emitted
/// key-sorted. `throughput` (one entry per sweep, emitted in order) lands
/// as the "sim_throughput" / "sim_throughput_host" sections; when empty,
/// both sections are omitted and the record matches historical builds.
std::string BenchReportJson(const BenchReportMeta& meta,
                            const std::vector<BenchCell>& cells,
                            const std::vector<PaperDelta>& paper_deltas,
                            const MetricsSnapshot& metrics,
                            const std::vector<SimThroughput>& throughput = {});

Status WriteBenchReport(const BenchReportMeta& meta,
                        const std::vector<BenchCell>& cells,
                        const std::vector<PaperDelta>& paper_deltas,
                        const MetricsSnapshot& metrics,
                        const std::string& path,
                        const std::vector<SimThroughput>& throughput = {});

/// A loaded record, flattened into comparable scalars:
///   cell/<benchmark>/<variant>/<precision>/<field>
///   gauge/<name>   counter/<name>   hist/<name>/{p50,p90,p99,max,mean,count}
///   sim_throughput/<sweep>/<field>   sim_throughput_host/<sweep>/<field>
struct ParsedBenchReport {
  std::string schema;
  std::string name;
  std::string git_sha;
  std::string fault_plan_hash;
  std::map<std::string, double> metrics;
};

/// Parses and flattens a BENCH record; InvalidArgument on malformed JSON
/// or a schema this build does not understand.
StatusOr<ParsedBenchReport> ParseBenchReport(std::string_view json);
StatusOr<ParsedBenchReport> LoadBenchReport(const std::string& path);

/// Which direction is "worse" for a metric. Classification is by name:
///   * ".../available" and anything containing "speedup" — higher is better
///   * "counter/..." and ".../count" — neutral (reported, never a
///     regression: a fault-count change is signal, not a verdict)
///   * times, watts, joules, EDP, stalls — lower is better
///   * everything else — neutral
enum class Polarity { kLowerBetter, kHigherBetter, kNeutral };
Polarity MetricPolarity(std::string_view name);

/// The backend a metric is scoped to, taken from the '/'-separated device
/// segment recorders embed in metric names ("mali-t604" in
/// "hist/fp32/kernel_time_sec/mali-t604/vecadd/p50"); "" for metrics that
/// are not backend-scoped. ComparisonText groups its tables by this.
std::string_view MetricBackend(std::string_view name);

struct CompareOptions {
  /// Relative threshold: |delta| / max(|baseline|, eps) beyond which a
  /// directional metric counts as a regression/improvement.
  double threshold = 0.05;
  /// Per-metric overrides: longest matching name prefix wins. Parsed from
  /// --threshold-spec=prefix=value[,...].
  std::vector<std::pair<std::string, double>> prefix_thresholds;
};

struct MetricDelta {
  enum class Verdict { kRegression, kImprovement, kChanged, kUnchanged };
  std::string name;
  double baseline = 0.0;
  double candidate = 0.0;
  double rel_delta = 0.0;  // (candidate - baseline) / max(|baseline|, eps)
  double threshold = 0.0;  // the threshold that applied to this metric
  Polarity polarity = Polarity::kNeutral;
  Verdict verdict = Verdict::kUnchanged;
};

struct BenchComparison {
  /// Ranked: regressions first (largest |rel_delta| first), then
  /// improvements, then neutral-but-changed, then unchanged.
  std::vector<MetricDelta> deltas;
  std::vector<std::string> only_in_baseline;
  std::vector<std::string> only_in_candidate;
  int regressions = 0;
  int improvements = 0;
  /// Non-fatal comparability warnings (name or fault-plan-hash mismatch).
  std::vector<std::string> warnings;

  bool HasRegressions() const { return regressions > 0; }
};

BenchComparison CompareBenchReports(const ParsedBenchReport& baseline,
                                    const ParsedBenchReport& candidate,
                                    const CompareOptions& options);

/// Human-readable ranked report; `max_rows` bounds each table.
std::string ComparisonText(const BenchComparison& comparison,
                           std::size_t max_rows = 25);
/// Machine-readable report, schema "malisim-bench-compare-v1". Unchanged
/// metrics are summarized by count, not listed.
std::string ComparisonJson(const BenchComparison& comparison);

}  // namespace malisim::obs
