// Per-rung circuit breakers (DESIGN.md §14).
//
// One breaker guards each degradation-ladder rung (hetero, openclopt,
// opencl, openmp, serial). State machine per breaker:
//
//   closed --(failure_threshold consecutive degradable failures)--> open
//   open   --(open_cooldown Allow() refusals elapsed)--> half-open
//   half-open --(probe succeeds)--> closed
//   half-open --(probe fails)--> open (cooldown restarts)
//   half-open --(probe inconclusive)--> half-open (next caller probes)
//
// While a rung's breaker is open, the engine routes jobs straight past it
// to the next rung down — turning a persistently broken backend from a
// per-job discovery (every job pays the failure) into a routing decision.
// The cooldown is COUNT-based (refused Allow() calls), not wall-clock:
// serve determinism is per-job, and a load-dependent clock would make the
// trip/half-open/recover cycle untestable. In half-open exactly one
// in-flight probe is allowed; other jobs keep routing down until the
// probe reports back.
//
// The Serial rung is still guarded (its breaker records outcomes) but the
// engine always attempts it as the last resort regardless of breaker
// state — there is nothing below it to route to, and refusing it would
// turn an open breaker into lost jobs.
//
// Thread safety: all methods are internally locked; Allow+Record pairs
// from concurrent workers interleave arbitrarily, which is fine — the
// breaker is a load-shedding heuristic, not a determinism surface.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string_view>

#include "hpc/benchmark.h"

namespace malisim::serve {

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };

std::string_view BreakerStateName(BreakerState s);

struct BreakerConfig {
  /// Consecutive degradable failures that trip closed -> open.
  int failure_threshold = 3;
  /// Allow() refusals in open before the next caller becomes the
  /// half-open probe.
  int open_cooldown = 8;
};

/// Breaker for one ladder rung.
class CircuitBreaker {
 public:
  CircuitBreaker() = default;
  explicit CircuitBreaker(const BreakerConfig& config) : config_(config) {}

  /// Reconfigures an idle breaker (before any traffic). Not synchronized
  /// against concurrent Allow/Record calls.
  void set_config(const BreakerConfig& config) { config_ = config; }

  /// May the caller attempt this rung? In open state this counts one
  /// cooldown tick and refuses; after `open_cooldown` refusals the next
  /// caller is admitted as the half-open probe.
  bool Allow();

  /// Reports the outcome of an attempt this breaker allowed.
  void RecordSuccess();
  void RecordFailure();
  /// Reports an attempt that says nothing about the rung (a fatal job
  /// error): frees the half-open probe slot and counts nothing.
  void RecordInconclusive();

  BreakerState state() const;
  /// Total closed->open transitions (metrics).
  std::uint64_t trips() const;

 private:
  BreakerConfig config_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int cooldown_left_ = 0;
  bool probe_in_flight_ = false;
  std::uint64_t trips_ = 0;
};

/// The ladder's breakers, indexed by hpc::Variant.
class BreakerBoard {
 public:
  BreakerBoard() = default;
  explicit BreakerBoard(const BreakerConfig& config) {
    for (auto& b : breakers_) b.set_config(config);
  }

  CircuitBreaker& ForVariant(hpc::Variant v) {
    return breakers_[static_cast<std::size_t>(v)];
  }
  const CircuitBreaker& ForVariant(hpc::Variant v) const {
    return breakers_[static_cast<std::size_t>(v)];
  }

 private:
  std::array<CircuitBreaker, 5> breakers_;
};

}  // namespace malisim::serve
