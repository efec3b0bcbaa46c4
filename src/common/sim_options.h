// Host-side execution options for the simulation engine itself (not the
// modelled hardware): how many host worker threads a device model may use
// to execute work-groups concurrently.
//
// The determinism contract (DESIGN.md §6): modelled results — output
// buffers, operation histograms, cycles, power, energy — are bit-identical
// for every `threads` value. Parallel runs execute work-groups
// concurrently but buffer their memory-event streams and replay them into
// the order-dependent cache/DRAM models in the canonical serial order.
#pragma once

#include <cstdint>
#include <string>

namespace malisim {

/// Configuration of the deterministic fault-injection subsystem
/// (src/fault/). Plain data so every layer can carry it without depending
/// on the fault library; fault::FaultPlan::FromOptions() interprets it.
///
/// Defaults model a healthy board: no injected faults, no watchdog. The
/// two paper-documented quirks (amcd FP64 compiler erratum, per-thread
/// register budget) are always-on FaultPlan entries and are NOT governed
/// by these knobs — golden figures reproduce with everything here at its
/// default.
struct FaultOptions {
  /// Seed of the fault decision streams (--fault-seed). Identical
  /// (sim seed, fault seed, threads) triples replay bit-identically.
  std::uint64_t seed = 0;

  /// Uniform per-site trip probability in [0, 1] applied to every
  /// injection site (--fault-rate). 0 disables injection.
  double rate = 0.0;

  /// Per-site overrides, e.g. "build=0.1,map=0.05" or "all=0.02"
  /// (--fault-spec). Applied on top of `rate`. Site names:
  /// alloc, write, read, copy, fill, map, unmap, ndrange, build,
  /// regsqueeze, throttle, meter.
  std::string spec;

  /// Per-kernel watchdog: a GPU launch whose modelled time exceeds this
  /// budget fails with DeadlineExceeded and the harness degrades the
  /// variant. 0 = no watchdog.
  double watchdog_sec = 0.0;

  /// True when any fault can actually fire.
  bool InjectionActive() const { return rate > 0.0 || !spec.empty(); }
  /// True when the harness resilience ladder (retry + degrade through
  /// OpenMP/Serial) should engage. Kept off on a healthy board so the
  /// paper's missing bars (amcd FP64) stay missing.
  bool ResilienceActive() const {
    return InjectionActive() || watchdog_sec > 0.0;
  }
};

struct SimOptions {
  /// Host worker threads for parallel simulation. 1 = recorded access
  /// chunks replay into the caches as they fill; >1 = work-groups execute
  /// on a pool and their chunks replay in canonical order.
  /// 0 = one worker per available hardware thread.
  int threads = 1;

  /// Chunks a worker may run ahead of the in-order replay cursor before it
  /// blocks, per Run() call. Bounds buffered memory-event storage.
  /// 0 = auto (2x the worker count, minimum 8).
  int replay_window = 0;

  /// Fault-injection and resilience configuration (see FaultOptions).
  FaultOptions fault;

  /// Resolved worker count (applies the `threads == 0` rule).
  int ResolvedThreads() const;
  /// Resolved replay window for the resolved worker count.
  int ResolvedWindow() const;
};

}  // namespace malisim
