#include "kir/exec_types.h"

namespace malisim::kir {

bool LaunchConfig::IsValid() const {
  if (work_dim < 1 || work_dim > 3) return false;
  for (int d = 0; d < 3; ++d) {
    if (global_size[d] == 0 || local_size[d] == 0) return false;
    if (global_size[d] % local_size[d] != 0) return false;
    if (static_cast<std::uint32_t>(d) >= work_dim &&
        (global_size[d] != 1 || local_size[d] != 1)) {
      return false;
    }
  }
  if (group_end != 0 && group_end > total_groups()) return false;
  if (group_begin >= group_range_end()) return false;
  return true;
}

std::uint64_t OpHistogram::TotalClass(OpClass c) const {
  std::uint64_t total = 0;
  const int base = static_cast<int>(c) * kNumScalarTypes * kNumLaneClasses;
  for (int i = 0; i < kNumScalarTypes * kNumLaneClasses; ++i) {
    total += counts_[base + i];
  }
  return total;
}

std::uint64_t OpHistogram::Total() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts_) total += c;
  return total;
}

std::uint64_t OpHistogram::TotalLaneOps(OpClass c) const {
  static constexpr std::uint8_t kLanesForIndex[kNumLaneClasses] = {1, 2, 4, 8, 16};
  std::uint64_t total = 0;
  const int base = static_cast<int>(c) * kNumScalarTypes * kNumLaneClasses;
  for (int t = 0; t < kNumScalarTypes; ++t) {
    for (int l = 0; l < kNumLaneClasses; ++l) {
      total += counts_[base + t * kNumLaneClasses + l] * kLanesForIndex[l];
    }
  }
  return total;
}

void OpHistogram::MergeFrom(const OpHistogram& other) {
  for (int i = 0; i < kSize; ++i) counts_[i] += other.counts_[i];
}

void WorkGroupRun::MergeFrom(const WorkGroupRun& other) {
  ops.MergeFrom(other.ops);
  loads += other.loads;
  stores += other.stores;
  load_bytes += other.load_bytes;
  store_bytes += other.store_bytes;
  atomics += other.atomics;
  barriers_crossed += other.barriers_crossed;
  work_items += other.work_items;
  item_weight_sum += other.item_weight_sum;
  weighted_group_cost += other.weighted_group_cost;
}

void MemRecorder::Flush() {
  if (size_ == 0) return;
  consumer_(std::span<const MemEvent>(chunk_.get(), size_));
  size_ = 0;
}

}  // namespace malisim::kir
