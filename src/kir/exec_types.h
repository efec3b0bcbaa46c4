// Types shared between the KIR VM and the device timing models: launch
// geometry, argument bindings, the per-class operation histogram that drives
// pipe-occupancy costing, and the bounded recorder through which the VM
// streams simulated addresses towards the cache models.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "kir/opcode.h"
#include "kir/types.h"

namespace malisim::kir {

/// OpenCL NDRange geometry. Unused dimensions must be 1.
struct LaunchConfig {
  std::uint32_t work_dim = 1;
  std::array<std::uint64_t, 3> global_size = {1, 1, 1};
  std::array<std::uint64_t, 3> local_size = {1, 1, 1};
  /// Work-group sub-range [group_begin, group_range_end()) over the
  /// row-major linearized group index, for co-execution backends that
  /// split one NDRange across devices. group_end == 0 means "through the
  /// last group". The kernel-visible geometry — global sizes, GlobalSize,
  /// GlobalId — is unchanged; the range only selects which groups this
  /// device executes, so kernels that chunk work by the global size stay
  /// functionally identical under a split.
  std::uint64_t group_begin = 0;
  std::uint64_t group_end = 0;

  std::uint64_t total_work_items() const {
    return global_size[0] * global_size[1] * global_size[2];
  }
  std::uint64_t work_group_size() const {
    return local_size[0] * local_size[1] * local_size[2];
  }
  std::array<std::uint64_t, 3> num_groups() const {
    return {global_size[0] / local_size[0], global_size[1] / local_size[1],
            global_size[2] / local_size[2]};
  }
  std::uint64_t total_groups() const {
    const auto g = num_groups();
    return g[0] * g[1] * g[2];
  }
  /// One past the last group this device executes.
  std::uint64_t group_range_end() const {
    return group_end == 0 ? total_groups() : group_end;
  }
  /// Groups in the active sub-range (== total_groups() by default).
  std::uint64_t active_groups() const {
    return group_range_end() - group_begin;
  }
  /// Work-items in the active sub-range, for occupancy modelling.
  std::uint64_t active_work_items() const {
    return active_groups() * work_group_size();
  }
  /// True when every global size is a positive multiple of its local size
  /// and the group sub-range is non-empty and within the grid.
  bool IsValid() const;
};

/// A buffer argument binding: real host storage plus the address the access
/// carries in the simulated (unified) address space.
struct BufferBinding {
  std::byte* host = nullptr;
  std::uint64_t sim_addr = 0;
  std::uint64_t size_bytes = 0;
};

/// A scalar argument value.
struct ScalarValue {
  ScalarType type = ScalarType::kI32;
  double f = 0.0;
  std::int64_t i = 0;

  static ScalarValue I32V(std::int32_t v);
  static ScalarValue I64V(std::int64_t v);
  static ScalarValue F32V(float v);
  static ScalarValue F64V(double v);
};

inline ScalarValue ScalarValue::I32V(std::int32_t v) {
  return {ScalarType::kI32, 0.0, v};
}
inline ScalarValue ScalarValue::I64V(std::int64_t v) {
  return {ScalarType::kI64, 0.0, v};
}
inline ScalarValue ScalarValue::F32V(float v) {
  return {ScalarType::kF32, static_cast<double>(v), 0};
}
inline ScalarValue ScalarValue::F64V(double v) {
  return {ScalarType::kF64, v, 0};
}

/// All bindings for one launch. `local_scratch` backs the program's __local
/// arrays for the work-group currently executing; the device model points it
/// at a per-core arena (on the Mali, local memory *is* global memory —
/// paper §III-B "Memory Spaces" — so the scratch has a simulated address and
/// goes through the caches like any other access).
struct Bindings {
  std::vector<BufferBinding> buffers;   // one per buffer arg, in decl order
  std::vector<ScalarValue> scalars;     // one per scalar arg, in decl order
  BufferBinding local_scratch;          // sized >= sum of local array bytes
};

/// Histogram of executed operations, indexed (OpClass, ScalarType, lanes).
/// The device models convert entries into pipe slots: e.g. on the Mali a
/// f32x4 multiply is one 128-bit arithmetic-pipe slot while four scalar f32
/// multiplies are four slots — the vectorization payoff of §III-B.
class OpHistogram {
 public:
  static constexpr int kSize =
      kNumOpClasses * kNumScalarTypes * kNumLaneClasses;

  static constexpr int Index(OpClass c, ScalarType t, int lane_idx) {
    return (static_cast<int>(c) * kNumScalarTypes + static_cast<int>(t)) *
               kNumLaneClasses +
           lane_idx;
  }

  void AddAt(int index, std::uint64_t n = 1) { counts_[index] += n; }
  void SubAt(int index, std::uint64_t n = 1) { counts_[index] -= n; }
  void Add(OpClass c, ScalarType t, std::uint8_t lanes, std::uint64_t n = 1) {
    AddAt(Index(c, t, LaneIndex(lanes)), n);
  }

  std::uint64_t Get(OpClass c, ScalarType t, std::uint8_t lanes) const {
    return counts_[Index(c, t, LaneIndex(lanes))];
  }

  /// Sum of instruction counts in a class, over all types and widths.
  std::uint64_t TotalClass(OpClass c) const;
  /// Sum over everything.
  std::uint64_t Total() const;
  /// Lane-ops in a class (each vecN instruction counts N).
  std::uint64_t TotalLaneOps(OpClass c) const;

  void MergeFrom(const OpHistogram& other);
  void Clear() { counts_.fill(0); }

  /// Visit non-zero entries.
  template <typename Fn>  // Fn(OpClass, ScalarType, lanes, count)
  void ForEach(Fn&& fn) const {
    static constexpr std::uint8_t kLanesForIndex[kNumLaneClasses] = {1, 2, 4, 8, 16};
    for (int c = 0; c < kNumOpClasses; ++c) {
      for (int t = 0; t < kNumScalarTypes; ++t) {
        for (int l = 0; l < kNumLaneClasses; ++l) {
          const std::uint64_t n =
              counts_[(c * kNumScalarTypes + t) * kNumLaneClasses + l];
          if (n != 0) {
            fn(static_cast<OpClass>(c), static_cast<ScalarType>(t),
               kLanesForIndex[l], n);
          }
        }
      }
    }
  }

 private:
  std::array<std::uint64_t, kSize> counts_{};
};

/// Aggregated result of executing one work-group (or many, when merged).
struct WorkGroupRun {
  OpHistogram ops;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_bytes = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t atomics = 0;
  std::uint64_t barriers_crossed = 0;  // per work-group, not per item
  std::uint64_t work_items = 0;
  /// Load-imbalance bookkeeping (paper §IV-A: spmv "is useful as metric to
  /// measure performance in cases of load imbalance"): a work-group retires
  /// only when its heaviest work-item finishes, so the effective issue work
  /// is max-per-item x group size rather than the sum.
  std::uint64_t item_weight_sum = 0;    // total instructions over all items
  std::uint64_t weighted_group_cost = 0;  // sum over groups: max_item * items

  /// >= 1; ratio by which intra-group imbalance inflates issue time.
  double imbalance_factor() const {
    if (item_weight_sum == 0) return 1.0;
    return static_cast<double>(weighted_group_cost) /
           static_cast<double>(item_weight_sum);
  }

  void MergeFrom(const WorkGroupRun& other);
};

/// One simulated memory access, in program order per work-item. Atomics
/// stay a single event so the cache replay can reproduce the device models'
/// contention accounting, not just the read+write pair. Trivially
/// constructible, so a recorder chunk is allocated without being zeroed.
struct MemEvent {
  enum Kind : std::uint8_t { kRead = 0, kWrite = 1, kAtomic = 2 };
  std::uint64_t addr;
  std::uint32_t bytes;
  std::uint8_t kind;
};

/// Bounded recorder of the VM's memory accesses (and the reference
/// interpreter's, in tests): each access is appended to one fixed chunk of
/// kChunkEvents (64 KiB), and the chunk goes to the consumer whenever it
/// fills and at every Flush(). A launch therefore never holds more than one
/// chunk per recorder, and the consumer sees every event exactly once, in
/// program order. Device models replay chunks into the cache hierarchy
/// (sim::MemoryHierarchy::Replay); tests collect them.
class MemRecorder {
 public:
  static constexpr std::size_t kChunkEvents = 4096;
  using Consumer = std::function<void(std::span<const MemEvent>)>;

  explicit MemRecorder(Consumer consumer)
      : consumer_(std::move(consumer)), chunk_(new MemEvent[kChunkEvents]) {}

  void Record(std::uint64_t addr, std::uint32_t bytes, MemEvent::Kind kind) {
    chunk_[size_] = {addr, bytes, kind};
    if (++size_ == kChunkEvents) Flush();
  }

  /// Room for the next `n` events (n <= kChunkEvents) in the current
  /// chunk, handing the chunk to the consumer first when fewer slots are
  /// left: the caller writes all `n` at the returned pointer. A VM lane
  /// batch's commit moves its buffered events this way. (Where a chunk
  /// ends never matters to a consumer: it sees the same events in the
  /// same order.)
  MemEvent* Append(std::size_t n) {
    if (kChunkEvents - size_ < n) Flush();
    MemEvent* const out = chunk_.get() + size_;
    size_ += n;
    return out;
  }

  /// Hands the pending events, if any, to the consumer.
  void Flush();

 private:
  Consumer consumer_;
  std::unique_ptr<MemEvent[]> chunk_;
  std::size_t size_ = 0;
};

}  // namespace malisim::kir
