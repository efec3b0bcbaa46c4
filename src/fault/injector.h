// FaultInjector: the imperative half of the fault-injection subsystem.
//
// Each injection point in the stack (tinycl queue ops, buffer allocation,
// the Mali kernel compiler, the T604 device model, the virtual WT230)
// holds an optional FaultInjector* and asks it whether to misbehave. All
// decisions are pure functions of (plan seed, site, site-local sequence
// number): no shared RNG stream, no cross-site coupling — injecting at
// one site never shifts another site's schedule, which is what makes
// fault schedules replayable and diffable.
//
// The injector also keeps the authoritative event log (what fired, where,
// and what the resilience layer did about it). A sink callback lets the
// harness mirror events into the observability Recorder without the fault
// library depending on obs (which would create a dependency cycle via
// power).
//
// Thread safety: one injector serves one (benchmark, precision) harness
// cell, whose injection sites all run on a single host thread; the event
// log is therefore unsynchronized. Parallel RunAll gives every cell its
// own injector.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_plan.h"

namespace malisim::fault {

/// One fault decision or resilience action, in program order.
struct FaultEvent {
  std::string site;    // FaultSiteName() or a resilience stage ("retry",
                       // "degrade", "watchdog")
  std::string key;     // kernel/buffer/benchmark context
  std::string action;  // "injected", "retried", "fell-back", ...
  std::string detail;  // human-readable description
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  /// Sink invoked for every recorded event (harness wires the Recorder).
  void set_sink(std::function<void(const FaultEvent&)> sink) {
    sink_ = std::move(sink);
  }

  /// Decides whether the next operation at `site` faults, advancing the
  /// site's sequence number. Records an event when it trips.
  bool Trip(FaultSite site, std::string_view key);

  /// amcd FP64 erratum quirk: `condition` is the structural trigger
  /// (FP64 special function in a divergent loop). Deterministic — not a
  /// probabilistic site; the plan can only switch the quirk off.
  bool TripFp64Erratum(bool condition) const {
    return plan_.fp64_erratum && condition;
  }

  /// Effective per-thread register budget for compiling `kernel`:
  /// unlimited when the reg-budget quirk is off, squeezed by
  /// reg_squeeze_factor when kRegSqueeze trips.
  std::uint32_t EffectiveRegBudget(std::uint32_t budget,
                                   std::string_view kernel);

  /// Time multiplier for one kernel launch: throttle_time_factor when
  /// kThrottle trips, else 1.0.
  double ThrottleTimeFactor(std::string_view kernel);

  /// True when the meter's next sample is dropped. Uses the kMeterDropout
  /// decision stream only — the meter's accuracy-noise RNG is untouched,
  /// so disabling injection leaves measurements bit-identical.
  bool DropMeterSample();

  /// Records a resilience action (retry, degrade, watchdog) in the event
  /// log and the sink. `site` is free-form here, not a FaultSite.
  void RecordAction(std::string site, std::string key, std::string action,
                    std::string detail);

  const std::vector<FaultEvent>& events() const { return events_; }
  std::uint64_t trips(FaultSite site) const {
    return trips_[static_cast<int>(site)];
  }
  std::uint64_t total_trips() const;

 private:
  /// Uniform [0, 1) draw for decision `sequence` at `site`.
  double Draw(FaultSite site, std::uint64_t sequence) const;
  void Record(FaultSite site, std::string_view key, std::string detail);

  FaultPlan plan_;
  std::function<void(const FaultEvent&)> sink_;
  std::uint64_t sequence_[kNumFaultSites] = {};
  std::uint64_t trips_[kNumFaultSites] = {};
  std::vector<FaultEvent> events_;
};

}  // namespace malisim::fault
