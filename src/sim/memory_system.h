// Composable memory hierarchy: optional per-core L1s in front of a shared L2,
// plus bookkeeping of the L2 miss stream (line counts and sequentiality) that
// the DRAM model converts into transfer time.
//
// Instances:
//   Cortex-A15: 2 cores x 32 KB L1-D  ->  1 MB shared L2  -> DRAM
//   Mali-T604:  4 cores x 16 KB L1    ->  1 MB shared L2 (SCU-coherent) -> DRAM
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kir/exec_types.h"
#include "sim/cache.h"
#include "sim/dram.h"

namespace malisim::sim {

struct HierarchyConfig {
  bool has_l1 = true;
  std::uint32_t num_cores = 1;
  CacheConfig l1;
  CacheConfig l2;
};

/// Classification of one access as it percolates down the hierarchy.
struct AccessOutcome {
  std::uint32_t lines_touched = 0;
  std::uint32_t l1_misses = 0;
  std::uint32_t l2_misses = 0;
};

/// Demand misses accumulated by MemoryHierarchy::Replay.
struct ReplayCounts {
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config);

  /// Runs [addr, addr+size) through core `core`'s L1 (if any) and the shared
  /// L2. Only L1 misses probe the L2, mirroring an inclusive hierarchy.
  AccessOutcome Access(std::uint32_t core, std::uint64_t addr,
                       std::uint32_t size, bool is_write);

  /// Runs a recorded access stream from core `core` through the hierarchy,
  /// in order, exactly as one Access() per event would — an atomic is a
  /// read then a write of its bytes — and adds the demand misses to
  /// `counts`. This is the device models' hot path: the line probes are
  /// inlined and the core is checked once per call, not per event.
  void Replay(std::uint32_t core, std::span<const kir::MemEvent> events,
              ReplayCounts* counts);

  /// Lines fetched from DRAM (L2 read misses) since the last reset.
  std::uint64_t dram_fill_lines() const { return fill_lines_; }
  /// Dirty lines written back to DRAM since the last reset.
  std::uint64_t dram_writeback_lines() const { return writeback_lines_; }
  /// Fraction of DRAM fills that were line-sequential with the previous
  /// fill from the same core (row-buffer locality proxy), in [0, 1].
  double sequential_fraction() const;

  /// Total bytes moved to/from DRAM.
  std::uint64_t dram_bytes() const {
    return (fill_lines_ + writeback_lines_) * l2_.config().line_bytes;
  }

  const CacheModel& l2() const { return l2_; }
  const CacheModel& l1(std::uint32_t core) const;

  /// Invalidate all levels and reset miss-stream statistics.
  void Flush();
  void ResetStats();

 private:
  /// The body Access and Replay share: every line of [addr, addr+size)
  /// (size > 0) through `l1` (null without L1s) and the L2.
  void AccessLines(CacheModel* l1, std::uint32_t core, std::uint64_t addr,
                   std::uint32_t size, bool is_write, std::uint64_t* l1_misses,
                   std::uint64_t* l2_misses);
  /// Counts one DRAM fill of `line` and classifies it as sequential or not.
  void RecordFill(std::uint32_t core, std::uint64_t line);

  HierarchyConfig config_;
  std::uint32_t line_shift_ = 0;
  std::vector<CacheModel> l1s_;
  CacheModel l2_;

  std::uint64_t fill_lines_ = 0;
  std::uint64_t writeback_lines_ = 0;
  std::uint64_t sequential_fills_ = 0;
  /// Per-core history of recent fill lines: a fill is "sequential" when it
  /// extends any of the last kStreamHistory fills from the same core. This
  /// recognizes the multi-stream access patterns (a[i], b[i], c[i], ...)
  /// that hardware prefetchers and DRAM row buffers track in parallel.
  static constexpr int kStreamHistory = 8;
  std::vector<std::uint64_t> fill_history_;  // num_cores * kStreamHistory
  std::vector<int> fill_history_pos_;        // per core, next slot to replace
};

}  // namespace malisim::sim
