// Differential fuzz of the cache/DRAM model (ctest -L memfuzz):
//
//  * CacheModel against the naive list-based ReferenceCache on the three
//    geometries the device models use (Mali L1 8 KiB/4-way, A15 L1
//    32 KiB/2-way, shared L2 1 MiB/16-way), write-allocate on and off,
//    with line-spanning, unaligned and zero-size accesses and flushes.
//  * MemoryHierarchy::Access against ReferenceHierarchy on multi-core
//    streams, plus conservation invariants (every probe is a hit or a
//    miss; a line never touched before misses the L1).
//  * MemoryHierarchy::Replay over randomly split chunks against one
//    Access per event, on streams with atomics, comparing every counter.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "kir/exec_types.h"
#include "sim/cache.h"
#include "sim/memory_system.h"
#include "reference_cache.h"

namespace malisim::sim {
namespace {

using testing::ReferenceCache;
using testing::ReferenceHierarchy;

constexpr CacheConfig kMaliL1{8 * 1024, 64, 4, true};
constexpr CacheConfig kA15L1{32 * 1024, 64, 2, true};
constexpr CacheConfig kL2{1024 * 1024, 64, 16, true};

/// Access sizes: zero, sub-word, the VM's widths, a full line, and sizes
/// that span two or three lines from an unaligned start.
constexpr std::uint32_t kSizes[] = {0, 1, 3, 4, 8, 16, 32, 64, 100, 130};

/// A random address: mostly from a hot window a few times the cache size
/// (so sets fill, hit and evict), sometimes from a wide cold range.
std::uint64_t RandomAddr(Xoshiro256& rng, std::uint64_t hot_bytes) {
  const std::uint64_t base = 0x10000000;
  if (rng.NextDouble() < 0.9) return base + rng.NextBounded(hot_bytes);
  return base + rng.NextBounded(256u << 20);
}

void ExpectStatsEqual(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.writebacks, want.writebacks);
}

struct CacheCase {
  CacheConfig config;
  std::uint64_t seed;
};

class CacheModelFuzzTest : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CacheModelFuzzTest, MatchesReferenceCache) {
  const CacheCase c = GetParam();
  CacheModel model(c.config);
  ReferenceCache reference(c.config);
  Xoshiro256 rng(c.seed);
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBounded(4000) == 0) {
      model.Flush();
      reference.Flush();
    }
    const std::uint64_t addr = RandomAddr(rng, 3 * c.config.size_bytes);
    const std::uint32_t size = kSizes[rng.NextBounded(std::size(kSizes))];
    const bool is_write = rng.NextDouble() < 0.35;
    const CacheAccessResult got = model.Access(addr, size, is_write);
    const CacheAccessResult want = reference.Access(addr, size, is_write);
    ASSERT_EQ(got.lines_touched, want.lines_touched) << "access " << i;
    ASSERT_EQ(got.misses, want.misses) << "access " << i;
    ASSERT_EQ(got.writebacks, want.writebacks) << "access " << i;
  }
  ExpectStatsEqual(model.stats(), reference.stats());
  const CacheStats& s = model.stats();
  EXPECT_EQ(s.hits + s.misses, s.accesses);
}

std::vector<CacheCase> CacheCases() {
  std::vector<CacheCase> cases;
  for (const CacheConfig& geometry : {kMaliL1, kA15L1, kL2}) {
    for (const bool write_allocate : {true, false}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        CacheConfig config = geometry;
        config.write_allocate = write_allocate;
        cases.push_back({config, seed * 7919 + config.size_bytes});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheModelFuzzTest,
                         ::testing::ValuesIn(CacheCases()));

struct HierarchyCase {
  HierarchyConfig config;
  std::uint64_t seed;
};

std::vector<HierarchyCase> HierarchyCases() {
  // A small L2 as well, so L2 evictions and DRAM writebacks happen often.
  const CacheConfig small_l2{64 * 1024, 64, 8, true};
  std::vector<HierarchyCase> cases;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    cases.push_back({{true, 4, kMaliL1, kL2}, seed});
    cases.push_back({{true, 2, kA15L1, kL2}, seed + 10});
    cases.push_back({{true, 4, kMaliL1, small_l2}, seed + 20});
    cases.push_back({{false, 2, kA15L1, small_l2}, seed + 30});
    CacheConfig no_allocate_l1 = kMaliL1;
    no_allocate_l1.write_allocate = false;
    cases.push_back({{true, 4, no_allocate_l1, small_l2}, seed + 40});
  }
  return cases;
}

void ExpectHierarchiesEqual(const MemoryHierarchy& got,
                            const ReferenceHierarchy& want,
                            const HierarchyConfig& config) {
  EXPECT_EQ(got.dram_fill_lines(), want.dram_fill_lines());
  EXPECT_EQ(got.dram_writeback_lines(), want.dram_writeback_lines());
  EXPECT_EQ(got.sequential_fraction(), want.sequential_fraction());
  ExpectStatsEqual(got.l2().stats(), want.l2().stats());
  if (!config.has_l1) return;
  for (std::uint32_t c = 0; c < config.num_cores; ++c) {
    ExpectStatsEqual(got.l1(c).stats(), want.l1(c).stats());
  }
}

class HierarchyFuzzTest : public ::testing::TestWithParam<HierarchyCase> {};

TEST_P(HierarchyFuzzTest, AccessMatchesReferenceHierarchy) {
  const HierarchyCase c = GetParam();
  MemoryHierarchy model(c.config);
  ReferenceHierarchy reference(c.config);
  Xoshiro256 rng(c.seed);
  std::set<std::uint64_t> touched;  // lines ever accessed
  const std::uint32_t line_bytes = c.config.l2.line_bytes;
  std::uint32_t core = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBounded(64) == 0) {
      core = static_cast<std::uint32_t>(rng.NextBounded(c.config.num_cores));
    }
    // Mix unit-stride runs (sequential fills) with random accesses.
    const std::uint64_t addr =
        rng.NextDouble() < 0.3 ? 0x20000000 + 16ull * static_cast<unsigned>(i)
                               : RandomAddr(rng, 2 * c.config.l2.size_bytes);
    const std::uint32_t size = kSizes[rng.NextBounded(std::size(kSizes))];
    const bool is_write = rng.NextDouble() < 0.35;
    std::uint32_t cold_lines = 0;
    for (std::uint64_t line = addr / line_bytes;
         size > 0 && line <= (addr + size - 1) / line_bytes; ++line) {
      cold_lines += touched.insert(line).second ? 1 : 0;
    }
    const AccessOutcome got = model.Access(core, addr, size, is_write);
    const AccessOutcome want = reference.Access(core, addr, size, is_write);
    ASSERT_EQ(got.lines_touched, want.lines_touched) << "access " << i;
    ASSERT_EQ(got.l1_misses, want.l1_misses) << "access " << i;
    ASSERT_EQ(got.l2_misses, want.l2_misses) << "access " << i;
    // Conservation: a line never seen before misses the L1, and only L1
    // misses reach the L2. (It can still hit the L2: an L1 writeback just
    // wrote it there, the placement ROADMAP item 2 moves to the victim's
    // line, after which a cold line misses every level.)
    ASSERT_GE(got.l1_misses, cold_lines) << "access " << i;
    ASSERT_LE(got.l2_misses, got.l1_misses) << "access " << i;
  }
  ExpectHierarchiesEqual(model, reference, c.config);
  const CacheStats& l2 = model.l2().stats();
  EXPECT_EQ(l2.hits + l2.misses, l2.accesses);
}

TEST_P(HierarchyFuzzTest, ReplayOfSplitChunksMatchesPerEventAccess) {
  const HierarchyCase c = GetParam();
  Xoshiro256 rng(c.seed * 31 + 7);
  // A stream of (core, event) runs: each core issues runs of events, as
  // the device models' per-core chunks do.
  struct Run {
    std::uint32_t core;
    std::vector<kir::MemEvent> events;
  };
  std::vector<Run> runs;
  for (int r = 0; r < 40; ++r) {
    Run run{static_cast<std::uint32_t>(rng.NextBounded(c.config.num_cores)),
            {}};
    const std::size_t n = rng.NextBounded(1500);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.NextDouble();
      const auto kind = u < 0.6   ? kir::MemEvent::kRead
                        : u < 0.9 ? kir::MemEvent::kWrite
                                  : kir::MemEvent::kAtomic;
      run.events.push_back(
          {RandomAddr(rng, 2 * c.config.l2.size_bytes),
           kSizes[rng.NextBounded(std::size(kSizes))], kind});
    }
    runs.push_back(std::move(run));
  }

  MemoryHierarchy replayed(c.config);
  MemoryHierarchy accessed(c.config);
  ReplayCounts replay_counts;
  std::uint64_t access_l1 = 0;
  std::uint64_t access_l2 = 0;
  for (const Run& run : runs) {
    // Random split points, empty chunks included.
    std::size_t at = 0;
    while (at < run.events.size()) {
      const std::size_t len =
          std::min<std::size_t>(rng.NextBounded(700), run.events.size() - at);
      replayed.Replay(run.core,
                      std::span<const kir::MemEvent>(run.events).subspan(at, len),
                      &replay_counts);
      at += len;
    }
    for (const kir::MemEvent& e : run.events) {
      const bool atomic = e.kind == kir::MemEvent::kAtomic;
      if (atomic) {
        const AccessOutcome rd = accessed.Access(run.core, e.addr, e.bytes, false);
        access_l1 += rd.l1_misses;
        access_l2 += rd.l2_misses;
      }
      const AccessOutcome o = accessed.Access(
          run.core, e.addr, e.bytes, atomic || e.kind == kir::MemEvent::kWrite);
      access_l1 += o.l1_misses;
      access_l2 += o.l2_misses;
    }
  }
  EXPECT_EQ(replay_counts.l1_misses, access_l1);
  EXPECT_EQ(replay_counts.l2_misses, access_l2);
  EXPECT_EQ(replayed.dram_fill_lines(), accessed.dram_fill_lines());
  EXPECT_EQ(replayed.dram_writeback_lines(), accessed.dram_writeback_lines());
  EXPECT_EQ(replayed.sequential_fraction(), accessed.sequential_fraction());
  ExpectStatsEqual(replayed.l2().stats(), accessed.l2().stats());
  if (c.config.has_l1) {
    for (std::uint32_t core = 0; core < c.config.num_cores; ++core) {
      ExpectStatsEqual(replayed.l1(core).stats(), accessed.l1(core).stats());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Hierarchies, HierarchyFuzzTest,
                         ::testing::ValuesIn(HierarchyCases()));

}  // namespace
}  // namespace malisim::sim
