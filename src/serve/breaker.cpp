#include "serve/breaker.h"

namespace malisim::serve {

std::string_view BreakerStateName(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (cooldown_left_ <= 0) {
        // `open_cooldown` refusals have elapsed: this caller is the probe.
        state_ = BreakerState::kHalfOpen;
        probe_in_flight_ = true;
        return true;
      }
      --cooldown_left_;
      return false;
    case BreakerState::kHalfOpen:
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        return true;
      }
      return false;  // one probe at a time; everyone else routes down
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  state_ = BreakerState::kClosed;
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= config_.failure_threshold) {
        state_ = BreakerState::kOpen;
        cooldown_left_ = config_.open_cooldown;
        ++trips_;
      }
      break;
    case BreakerState::kHalfOpen:
      // Probe failed: reopen, restart the cooldown.
      state_ = BreakerState::kOpen;
      cooldown_left_ = config_.open_cooldown;
      probe_in_flight_ = false;
      ++trips_;
      break;
    case BreakerState::kOpen:
      // A last-resort Serial attempt (or a straggler admitted before the
      // trip) failing while open: nothing further to trip.
      break;
  }
}

void CircuitBreaker::RecordInconclusive() {
  std::lock_guard<std::mutex> lock(mu_);
  probe_in_flight_ = false;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::uint64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

}  // namespace malisim::serve
