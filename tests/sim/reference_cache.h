// Deliberately naive reference models of the cache hierarchy, used only as
// differential-test oracles for sim::CacheModel and sim::MemoryHierarchy.
//
// They follow the definition, not the production code: each set is a
// std::list of resident lines, most recently used first; a hit moves its
// line to the front; a fill pushes the new line to the front and, when the
// set is full, evicts the back (the least recently used line), counting a
// writeback if it was dirty. Write misses allocate only when the cache is
// write-allocate. Addresses map to lines and sets by plain division.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <vector>

#include "sim/cache.h"
#include "sim/memory_system.h"

namespace malisim::sim::testing {

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : config_(config), sets_(config.num_sets()) {}

  CacheAccessResult Access(std::uint64_t addr, std::uint32_t size,
                           bool is_write) {
    CacheAccessResult result;
    if (size == 0) return result;
    const std::uint64_t first = addr / config_.line_bytes;
    const std::uint64_t last = (addr + size - 1) / config_.line_bytes;
    for (std::uint64_t line = first; line <= last; ++line) {
      ++result.lines_touched;
      ++stats_.accesses;
      std::list<Resident>& set = sets_[line % sets_.size()];
      auto it = set.begin();
      while (it != set.end() && it->line != line) ++it;
      if (it != set.end()) {
        ++stats_.hits;
        it->dirty = it->dirty || is_write;
        set.splice(set.begin(), set, it);
        continue;
      }
      ++stats_.misses;
      ++result.misses;
      if (is_write && !config_.write_allocate) continue;
      if (set.size() == config_.associativity) {
        if (set.back().dirty) {
          ++stats_.writebacks;
          ++result.writebacks;
        }
        set.pop_back();
      }
      set.push_front({line, is_write});
    }
    return result;
  }

  void Flush() {
    for (std::list<Resident>& set : sets_) {
      for (const Resident& r : set) {
        if (r.dirty) ++stats_.writebacks;
      }
      set.clear();
    }
  }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Resident {
    std::uint64_t line;
    bool dirty;
  };

  CacheConfig config_;
  std::vector<std::list<Resident>> sets_;
  CacheStats stats_;
};

/// Per-core L1s (optional) in front of a shared L2, plus the DRAM miss
/// stream bookkeeping. Only L1 misses reach the L2. An L1 dirty eviction is
/// written into the L2 at the address of the line being accessed, not the
/// evicted one: that is today's placement, kept so the oracle pins the
/// current model (ROADMAP item 2 moves it to the victim's address).
class ReferenceHierarchy {
 public:
  explicit ReferenceHierarchy(const HierarchyConfig& config)
      : config_(config), l2_(config.l2), streams_(config.num_cores) {
    if (config.has_l1) {
      for (std::uint32_t c = 0; c < config.num_cores; ++c) {
        l1s_.emplace_back(config.l1);
      }
    }
  }

  AccessOutcome Access(std::uint32_t core, std::uint64_t addr,
                       std::uint32_t size, bool is_write) {
    AccessOutcome outcome;
    if (size == 0) return outcome;
    const std::uint32_t line_bytes = config_.l2.line_bytes;
    const std::uint64_t first = addr / line_bytes;
    const std::uint64_t last = (addr + size - 1) / line_bytes;
    outcome.lines_touched = static_cast<std::uint32_t>(last - first + 1);
    for (std::uint64_t line = first; line <= last; ++line) {
      const std::uint64_t line_addr = line * line_bytes;
      if (config_.has_l1) {
        const CacheAccessResult r1 =
            l1s_[core].Access(line_addr, line_bytes, is_write);
        if (r1.writebacks > 0) {
          dram_writebacks_ += l2_.Access(line_addr, line_bytes, true).writebacks;
        }
        if (r1.misses == 0) continue;
      }
      ++outcome.l1_misses;
      const CacheAccessResult r2 = l2_.Access(line_addr, line_bytes, is_write);
      dram_writebacks_ += r2.writebacks;
      if (r2.misses > 0) {
        ++outcome.l2_misses;
        ++dram_fills_;
        if (streams_[core].Extend(line)) ++sequential_fills_;
      }
    }
    return outcome;
  }

  std::uint64_t dram_fill_lines() const { return dram_fills_; }
  std::uint64_t dram_writeback_lines() const { return dram_writebacks_; }
  double sequential_fraction() const {
    return dram_fills_ == 0 ? 1.0
                            : static_cast<double>(sequential_fills_) /
                                  static_cast<double>(dram_fills_);
  }
  const ReferenceCache& l1(std::uint32_t core) const { return l1s_[core]; }
  const ReferenceCache& l2() const { return l2_; }

 private:
  /// The last eight fill streams of one core. A fill one line past a
  /// tracked stream is sequential and advances that stream; any other fill
  /// starts a new stream in the oldest-started slot.
  struct Streams {
    static constexpr int kSlots = 8;
    std::array<std::uint64_t, kSlots> next_line{};  // line that would extend
    std::array<bool, kSlots> live{};
    int oldest = 0;

    bool Extend(std::uint64_t line) {
      for (int s = 0; s < kSlots; ++s) {
        if (live[s] && next_line[s] == line) {
          next_line[s] = line + 1;
          return true;
        }
      }
      next_line[oldest] = line + 1;
      live[oldest] = true;
      oldest = (oldest + 1) % kSlots;
      return false;
    }
  };

  HierarchyConfig config_;
  std::vector<ReferenceCache> l1s_;
  ReferenceCache l2_;
  std::vector<Streams> streams_;
  std::uint64_t dram_fills_ = 0;
  std::uint64_t dram_writebacks_ = 0;
  std::uint64_t sequential_fills_ = 0;
};

}  // namespace malisim::sim::testing
