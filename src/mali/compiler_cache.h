// Content-addressed cache for Mali kernel compiles.
//
// The serve engine (DESIGN.md §14) builds the same handful of KIR programs
// thousands of times — once per job per attempt, because every job gets
// fresh devices for isolation. The pure half of the compile
// (mali::AnalyzeForMali plus the generic IR passes that precede it) is a
// deterministic function of the kernel text and the compile-relevant
// timing parameters, so it is shared process-wide through this cache. The
// fault-gate half (mali::ApplyBuildFaults) is *never* cached: it is
// re-applied on every build, hit or miss, so a job's fault schedule —
// which injector decisions fire, in which order — is bit-identical
// regardless of cache warmth. That property is what keeps per-seed replay
// exact while the cache is shared between concurrent workers.
//
// Thread safety: all methods are safe to call concurrently; entries are
// immutable once published (shared_ptr<const Entry>). Misses are
// single-flight: concurrent callers missing on one key wait for one
// compile, so the hit/miss split is the same at any worker count.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "kir/program.h"
#include "mali/compiler.h"
#include "mali/t604_params.h"

namespace malisim::mali {

class CompileCache {
 public:
  struct Entry {
    /// The program after the generic optimization passes (ConstantFold,
    /// DeadCodeElim) ran over the source text behind the key.
    kir::Program transformed;
    /// Pure analysis of `transformed` (AnalyzeForMali). `program` is null
    /// in the stored copy; consumers repoint it at their own copy of
    /// `transformed` before use. `analyzed.bytecode` (the VM lowering) is
    /// shared as-is: consumer copies of `transformed` are code-identical to
    /// it, so one compiled stream serves every hit.
    CompiledKernel analyzed;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Cache key: FNV-1a over the *pre-pass* kernel text plus every timing
  /// parameter the pure compile reads. Keying on the source (not post-pass)
  /// text lets a hit skip the passes too.
  static std::uint64_t Key(const kir::Program& program,
                           const MaliTimingParams& timing);

  /// Returns the entry for `key`, running `compile` (outside the lock) on
  /// a miss and publishing its result. A caller that misses while another
  /// compiles the same key waits for that compile and counts as a hit, so
  /// misses equal the distinct keys compiled. A failed compile is returned
  /// to its caller and not cached; callers waiting on it then retry.
  StatusOr<std::shared_ptr<const Entry>> GetOrCompile(
      std::uint64_t key, const std::function<StatusOr<Entry>()>& compile);

  Stats stats() const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable compiled_;  // signalled when a flight lands
  std::unordered_map<std::uint64_t, std::shared_ptr<const Entry>> entries_;
  std::unordered_set<std::uint64_t> in_flight_;
  Stats stats_;
};

}  // namespace malisim::mali
