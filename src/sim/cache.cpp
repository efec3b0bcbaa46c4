#include "sim/cache.h"

#include <algorithm>
#include <bit>

namespace malisim::sim {

CacheModel::CacheModel(const CacheConfig& config) : config_(config) {
  MALI_CHECK_MSG(config.line_bytes > 0 && std::has_single_bit(config.line_bytes),
                 "cache line size must be a power of two");
  MALI_CHECK_MSG(config.associativity > 0, "associativity must be positive");
  const std::uint64_t sets = config.num_sets();
  MALI_CHECK_MSG(sets > 0 && std::has_single_bit(sets),
                 "cache set count must be a positive power of two");
  ways_ = config.associativity;
  set_mask_ = sets - 1;
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets));
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config.line_bytes));
  lines_.assign(sets * ways_, kInvalid);
}

CacheAccessResult CacheModel::Access(std::uint64_t addr, std::uint32_t size,
                                     bool is_write) {
  CacheAccessResult result;
  if (size == 0) return result;
  const std::uint64_t first_line = addr >> line_shift_;
  const std::uint64_t last_line = (addr + size - 1) >> line_shift_;
  for (std::uint64_t line = first_line; line <= last_line; ++line) {
    const unsigned r = ProbeLine(line, is_write);
    ++result.lines_touched;
    result.misses += r & kMiss;
    if ((r & kWriteback) != 0) ++result.writebacks;
  }
  return result;
}

void CacheModel::Flush() {
  for (const std::uint64_t way : lines_) stats_.writebacks += way & 1;
  std::fill(lines_.begin(), lines_.end(), kInvalid);
}

}  // namespace malisim::sim
