#include "mali/compiler_cache.h"

#include <cstring>

namespace malisim::mali {
namespace {

std::uint64_t Fnv1a64Bytes(std::uint64_t h, const void* data,
                           std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t MixU32(std::uint64_t h, std::uint32_t v) {
  return Fnv1a64Bytes(h, &v, sizeof(v));
}

std::uint64_t MixDouble(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return Fnv1a64Bytes(h, &bits, sizeof(bits));
}

}  // namespace

std::uint64_t CompileCache::Key(const kir::Program& program,
                                const MaliTimingParams& timing) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const std::string text = kir::ToText(program);
  h = Fnv1a64Bytes(h, text.data(), text.size());
  // Every timing field the pure compile (AnalyzeForMali) reads. The fault
  // gates read more (via the injector), but those run outside the cache.
  h = MixU32(h, timing.max_thread_reg_bytes);
  h = MixU32(h, timing.reg_file_bytes_per_core);
  h = MixU32(h, timing.max_threads_per_core);
  h = MixDouble(h, timing.restrict_sched_factor);
  h = MixDouble(h, timing.const_sched_factor);
  return h;
}

StatusOr<std::shared_ptr<const CompileCache::Entry>> CompileCache::GetOrCompile(
    std::uint64_t key, const std::function<StatusOr<Entry>()>& compile) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (auto it = entries_.find(key); it != entries_.end()) {
      ++stats_.hits;
      return it->second;
    }
    if (!in_flight_.contains(key)) break;
    compiled_.wait(lock);
  }
  in_flight_.insert(key);
  ++stats_.misses;
  lock.unlock();
  StatusOr<Entry> fresh = compile();
  lock.lock();
  in_flight_.erase(key);
  compiled_.notify_all();
  if (!fresh.ok()) return fresh.status();
  return entries_
      .emplace(key, std::make_shared<const Entry>(*std::move(fresh)))
      .first->second;
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t CompileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace malisim::mali
