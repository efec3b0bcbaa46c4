// Counter and span infrastructure for host-side self-observability.
//
// CounterRegistry is a thread-safe named-counter bag with id-based hot-path
// access: call Register() once (idempotent, returns a stable id), then
// Add(id, delta) from anywhere. Hot simulation loops should accumulate into
// a local integer and flush once per region instead of calling Add() per
// event — the devices' opcode tallies follow that pattern via raw pointer
// hooks (see kir::vm::VmExecutor::set_opcode_tally).
//
// ScopedSpan measures host wall-clock time (nanoseconds) into a counter.
// Wall-clock values describe the simulator process itself and are kept out
// of every deterministic output (golden CSVs, metrics JSON kernel records):
// they appear only under the "host.*" counter namespace.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace malisim::obs {

class CounterRegistry {
 public:
  using Id = std::size_t;

  /// Returns the id for `name`, creating the counter (value 0) on first
  /// use. Idempotent: the same name always maps to the same id.
  Id Register(const std::string& name);

  /// Adds `delta` to the counter. Thread-safe.
  void Add(Id id, double delta);

  /// Register + Add in one call, for cold paths.
  void Increment(const std::string& name, double delta = 1.0);

  double Get(const std::string& name) const;  // 0 if absent

  struct Entry {
    std::string name;
    double value = 0.0;
  };
  /// Snapshot in registration order.
  std::vector<Entry> Snapshot() const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// RAII wall-clock span: adds elapsed nanoseconds to `registry[id]` on
/// destruction. Use for host-side overhead attribution only.
class ScopedSpan {
 public:
  ScopedSpan(CounterRegistry* registry, CounterRegistry::Id id)
      : registry_(registry),
        id_(id),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedSpan() {
    if (registry_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start_);
    registry_->Add(id_, static_cast<double>(ns.count()));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  CounterRegistry* registry_;
  CounterRegistry::Id id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace malisim::obs
