// Graceful-degradation ladder: try progressively less ambitious ways of
// producing the same result. RunLadder is the one walker for every ladder
// (DESIGN.md §8): the kernel rungs inside nbody and 2dcon, and the variant
// rungs Hetero -> OpenCL Opt -> OpenCL -> OpenMP -> Serial that the harness
// and serve walk.
//
// Each rung runs under the transient-retry policy; a degradable failure
// moves down one rung, a fatal failure aborts the ladder. An optional gate,
// asked once before each rung, runs, skips or stops at it (serve's circuit
// breakers and deadline budget). The report gives callers the per-rung
// failures so layer-appropriate notes (the figure annotations) can be
// rendered without this header knowing about benchmarks or variants.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.h"
#include "fault/retry.h"

namespace malisim::fault {

/// One rung: a label for notes/events plus the operation itself.
template <typename T>
struct Rung {
  std::string label;
  std::function<StatusOr<T>()> run;
};

/// A gate's verdict on one rung; on kStop, RunLadder returns `status`.
struct GateDecision {
  enum Action { kRun, kSkip, kStop } action = kRun;
  Status status;
};

/// Asked once before each rung, with the rung's index.
using RungGate = std::function<GateDecision(std::size_t rung_index)>;

struct LadderReport {
  /// Rung that produced the result; -1 when every rung failed.
  int rung_index = -1;
  /// (label, status) of each rung that failed before the winner.
  std::vector<std::pair<std::string, Status>> failures;
  /// Retry accounting summed over all rungs.
  RetryStats retry;
};

/// Walks the rungs top-down. Every rung gets the transient-retry budget;
/// degradable failures fall through to the next rung, anything else
/// returns immediately. When given, `gate` is asked before each rung.
/// Events are recorded on `injector` when given, keyed by rung label:
/// site "retry" (action "retried", "N transient retr(y|ies)") and site
/// "degrade" (action "fell-back", "<status> -> trying '<next label>'").
template <typename T>
StatusOr<T> RunLadder(const RetryPolicy& policy, std::span<const Rung<T>> rungs,
                      LadderReport* report = nullptr,
                      FaultInjector* injector = nullptr,
                      const RungGate& gate = {}) {
  MALI_CHECK_MSG(!rungs.empty(), "degradation ladder needs at least one rung");
  Status last = FailedPreconditionError("every ladder rung was skipped");
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (gate) {
      GateDecision decision = gate(i);
      if (decision.action == GateDecision::kSkip) continue;
      if (decision.action == GateDecision::kStop) {
        MALI_CHECK_MSG(!decision.status.ok(), "a gate stops with an error");
        return std::move(decision.status);
      }
    }
    RetryStats rs;
    StatusOr<T> result = RetryWithBackoff(policy, rungs[i].run, &rs);
    if (report != nullptr) {
      report->retry.attempts += rs.attempts;
      report->retry.retries += rs.retries;
      report->retry.backoff_sec += rs.backoff_sec;
    }
    if (injector != nullptr && rs.retries > 0) {
      injector->RecordAction("retry", rungs[i].label, "retried",
                             std::to_string(rs.retries) +
                                 " transient retr" +
                                 (rs.retries == 1 ? "y" : "ies"));
    }
    if (result.ok()) {
      if (report != nullptr) report->rung_index = static_cast<int>(i);
      return result;
    }
    last = internal::StatusOf(result);
    if (report != nullptr) {
      report->failures.emplace_back(rungs[i].label, last);
    }
    if (!IsDegradable(last)) return result;
    if (injector != nullptr && i + 1 < rungs.size()) {
      injector->RecordAction("degrade", rungs[i].label, "fell-back",
                             last.ToString() + " -> trying '" +
                                 rungs[i + 1].label + "'");
    }
  }
  return last;
}

}  // namespace malisim::fault
