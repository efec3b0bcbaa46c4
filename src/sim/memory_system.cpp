#include "sim/memory_system.h"

#include <algorithm>
#include <bit>

namespace malisim::sim {

namespace {
constexpr std::uint64_t kNoLine = ~0ULL;
}  // namespace

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config)
    : config_(config), l2_(config.l2) {
  MALI_CHECK_MSG(config.num_cores > 0, "need at least one core");
  if (config_.has_l1) {
    MALI_CHECK_MSG(config.l1.line_bytes == config.l2.line_bytes,
                   "mixed line sizes are not modelled");
    l1s_.reserve(config_.num_cores);
    for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
      l1s_.emplace_back(config_.l1);
    }
  }
  // CacheModel checked that the line size is a power of two.
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config_.l2.line_bytes));
  fill_history_.assign(
      static_cast<std::size_t>(config_.num_cores) * kStreamHistory, kNoLine);
  fill_history_pos_.assign(config_.num_cores, 0);
}

inline void MemoryHierarchy::RecordFill(std::uint32_t core,
                                        std::uint64_t line) {
  ++fill_lines_;
  std::uint64_t* history = &fill_history_[core * kStreamHistory];
  for (int h = 0; h < kStreamHistory; ++h) {
    if (history[h] != kNoLine && line == history[h] + 1) {
      ++sequential_fills_;
      history[h] = line;  // extend this stream's tracking slot
      return;
    }
  }
  // A new stream takes the slot after the last one started.
  int& next = fill_history_pos_[core];
  history[next] = line;
  next = (next + 1) % kStreamHistory;
}

// Forced inline: Replay's per-event loop then keeps the miss counters and
// probe outcomes in registers.
[[gnu::always_inline]] inline void MemoryHierarchy::AccessLines(
    CacheModel* l1, std::uint32_t core, std::uint64_t addr, std::uint32_t size,
    bool is_write, std::uint64_t* l1_misses, std::uint64_t* l2_misses) {
  const std::uint64_t last_line = (addr + size - 1) >> line_shift_;
  for (std::uint64_t line = addr >> line_shift_; line <= last_line; ++line) {
    if (l1 != nullptr) {
      const unsigned r = l1->ProbeLine(line, is_write);
      // L1 writebacks land in the L2 (write-back hierarchy); model them as
      // L2 write probes without inflating the program's demand stream.
      // They probe the incoming line's address, not the victim's (ROADMAP
      // item 2).
      if ((r & CacheModel::kWriteback) != 0 &&
          (l2_.ProbeLine(line, true) & CacheModel::kWriteback) != 0) {
        ++writeback_lines_;
      }
      if ((r & CacheModel::kMiss) == 0) continue;
    }
    ++*l1_misses;  // without an L1 every access reaches the L2
    const unsigned r = l2_.ProbeLine(line, is_write);
    if ((r & CacheModel::kWriteback) != 0) ++writeback_lines_;
    if ((r & CacheModel::kMiss) != 0) {
      ++*l2_misses;
      RecordFill(core, line);
    }
  }
}

AccessOutcome MemoryHierarchy::Access(std::uint32_t core, std::uint64_t addr,
                                      std::uint32_t size, bool is_write) {
  MALI_CHECK(core < config_.num_cores);
  AccessOutcome outcome;
  if (size == 0) return outcome;
  outcome.lines_touched = static_cast<std::uint32_t>(
      ((addr + size - 1) >> line_shift_) - (addr >> line_shift_) + 1);
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  AccessLines(config_.has_l1 ? &l1s_[core] : nullptr, core, addr, size,
              is_write, &l1_misses, &l2_misses);
  outcome.l1_misses = static_cast<std::uint32_t>(l1_misses);
  outcome.l2_misses = static_cast<std::uint32_t>(l2_misses);
  return outcome;
}

void MemoryHierarchy::Replay(std::uint32_t core,
                             std::span<const kir::MemEvent> events,
                             ReplayCounts* counts) {
  MALI_CHECK(core < config_.num_cores);
  CacheModel* const l1 = config_.has_l1 ? &l1s_[core] : nullptr;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  for (const kir::MemEvent& e : events) {
    if (e.bytes == 0) continue;
    bool is_write = e.kind == kir::MemEvent::kWrite;
    if (e.kind == kir::MemEvent::kAtomic) {
      AccessLines(l1, core, e.addr, e.bytes, false, &l1_misses, &l2_misses);
      is_write = true;
    }
    AccessLines(l1, core, e.addr, e.bytes, is_write, &l1_misses, &l2_misses);
  }
  counts->l1_misses += l1_misses;
  counts->l2_misses += l2_misses;
}

double MemoryHierarchy::sequential_fraction() const {
  if (fill_lines_ == 0) return 1.0;
  return static_cast<double>(sequential_fills_) /
         static_cast<double>(fill_lines_);
}

const CacheModel& MemoryHierarchy::l1(std::uint32_t core) const {
  MALI_CHECK(config_.has_l1 && core < l1s_.size());
  return l1s_[core];
}

void MemoryHierarchy::Flush() {
  for (CacheModel& l1 : l1s_) l1.Flush();
  l2_.Flush();
  std::fill(fill_history_.begin(), fill_history_.end(), kNoLine);
}

void MemoryHierarchy::ResetStats() {
  for (CacheModel& l1 : l1s_) l1.ResetStats();
  l2_.ResetStats();
  fill_lines_ = 0;
  writeback_lines_ = 0;
  sequential_fills_ = 0;
  std::fill(fill_history_.begin(), fill_history_.end(), kNoLine);
}

}  // namespace malisim::sim
