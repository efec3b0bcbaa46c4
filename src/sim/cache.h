// Set-associative write-back cache model with true-LRU replacement.
//
// The model is functional-free: it tracks only tags and dirty bits to
// classify accesses as hits/misses and to count writebacks. Both device
// models drive it with the (simulated) addresses produced by the KIR
// interpreter, so locality effects — the heart of several paper
// optimizations (data reuse in dmmm/2dcon, strided stencils, SOA layout) —
// are captured rather than assumed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace malisim::sim {

struct CacheConfig {
  std::uint64_t size_bytes = 0;
  std::uint32_t line_bytes = 64;
  std::uint32_t associativity = 8;
  bool write_allocate = true;

  std::uint64_t num_sets() const {
    return size_bytes / (static_cast<std::uint64_t>(line_bytes) * associativity);
  }
};

/// Outcome of one (possibly line-spanning) access.
struct CacheAccessResult {
  std::uint32_t lines_touched = 0;
  std::uint32_t misses = 0;
  std::uint32_t writebacks = 0;  // dirty evictions caused by this access
};

struct CacheStats {
  std::uint64_t accesses = 0;   // line-granular probe count
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

  double hit_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) / static_cast<double>(accesses);
  }
};

class CacheModel {
 public:
  explicit CacheModel(const CacheConfig& config);

  /// Probes every line overlapped by [addr, addr+size). Write misses
  /// allocate when configured (write-allocate + write-back), otherwise they
  /// are counted as misses that bypass the cache.
  CacheAccessResult Access(std::uint64_t addr, std::uint32_t size, bool is_write);

  /// Outcome bits of ProbeLine.
  static constexpr unsigned kMiss = 1;
  static constexpr unsigned kWriteback = 2;  // the fill evicted a dirty line

  /// Probes one line, given as a line index (byte address >> line shift),
  /// and updates the statistics. Returns kMiss / kWriteback bits. Inline so
  /// the memory hierarchy's replay loop keeps the whole probe in registers.
  unsigned ProbeLine(std::uint64_t line, bool is_write);

  /// Invalidate everything (e.g. between benchmark repetitions); dirty lines
  /// are counted as writebacks.
  void Flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

 private:
  /// A way holds (tag << 1) | dirty. Each set is kept in recency order,
  /// most recent first, so the LRU line — or an invalid way, which sorts
  /// last — is always the final way. Simulated addresses stay below 2^63,
  /// so no valid tag collides with kInvalid.
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{1};

  CacheConfig config_;
  std::uint32_t ways_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint32_t set_shift_ = 0;  // log2(sets): line index -> tag
  std::uint32_t line_shift_ = 0;
  std::vector<std::uint64_t> lines_;  // sets * ways, row-major by set
  CacheStats stats_;
};

inline unsigned CacheModel::ProbeLine(std::uint64_t line, bool is_write) {
  ++stats_.accesses;
  std::uint64_t* const set = &lines_[(line & set_mask_) * ways_];
  const std::uint64_t key = (line >> set_shift_) << 1;
  const std::uint64_t dirty = is_write ? 1 : 0;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    const std::uint64_t way = set[w];
    if ((way | 1) == (key | 1)) {
      // Hit: move to the front (most recent), merging the dirty bit.
      for (std::uint32_t k = w; k > 0; --k) set[k] = set[k - 1];
      set[0] = way | dirty;
      ++stats_.hits;
      return 0;
    }
  }
  ++stats_.misses;
  // Non-allocating writes bypass the cache entirely.
  if (is_write && !config_.write_allocate) return kMiss;
  // Fill: the last way (an invalid one if any, else the LRU line) leaves.
  unsigned out = kMiss;
  if ((set[ways_ - 1] & 1) != 0) {
    ++stats_.writebacks;
    out |= kWriteback;
  }
  for (std::uint32_t k = ways_ - 1; k > 0; --k) set[k] = set[k - 1];
  set[0] = key | dirty;
  return out;
}

}  // namespace malisim::sim
