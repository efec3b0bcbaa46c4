// The content-addressed compile cache behind ocl::Program::Build and the
// serve engine: key sensitivity, hit/miss accounting, single-flight
// compiles under concurrent misses, and — the property the serve replay
// contract rests on — fault schedules that are bit-identical on a cache
// hit and a cache miss.
#include "mali/compiler_cache.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/injector.h"
#include "kir/builder.h"
#include "ocl/runtime.h"

namespace malisim::mali {
namespace {

using kir::ArgKind;
using kir::KernelBuilder;
using kir::ScalarType;
using kir::Val;

kir::Program MakeKernel(const std::string& name, int loads) {
  KernelBuilder kb(name);
  auto in = kb.ArgBuffer("in", ScalarType::kF32, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  Val sum = kb.Load(in, gid);
  for (int i = 1; i < loads; ++i) sum = sum + kb.Load(in, gid, i);
  kb.Store(out, gid, sum);
  return *kb.Build();
}

TEST(CompileCacheTest, KeyIsContentAddressed) {
  const MaliTimingParams timing;
  const kir::Program a = MakeKernel("k", 2);
  const kir::Program a_again = MakeKernel("k", 2);
  const kir::Program b = MakeKernel("k", 3);
  // Same content -> same key, regardless of object identity.
  EXPECT_EQ(CompileCache::Key(a, timing), CompileCache::Key(a_again, timing));
  EXPECT_NE(CompileCache::Key(a, timing), CompileCache::Key(b, timing));
  // Every compile-relevant timing parameter enters the address.
  MaliTimingParams squeezed = timing;
  squeezed.max_thread_reg_bytes /= 2;
  EXPECT_NE(CompileCache::Key(a, timing), CompileCache::Key(a, squeezed));
  MaliTimingParams sched = timing;
  sched.restrict_sched_factor *= 0.5;
  EXPECT_NE(CompileCache::Key(a, timing), CompileCache::Key(a, sched));
}

/// The pure compile the cache memoizes, counting its invocations.
std::function<StatusOr<CompileCache::Entry>()> CountedCompile(
    const kir::Program& p, const MaliTimingParams& timing,
    std::atomic<int>* calls) {
  return [&p, timing, calls]() -> StatusOr<CompileCache::Entry> {
    calls->fetch_add(1);
    StatusOr<CompiledKernel> analyzed = AnalyzeForMali(p, timing);
    if (!analyzed.ok()) return analyzed.status();
    CompileCache::Entry entry;
    entry.transformed = p;
    entry.analyzed = *analyzed;
    entry.analyzed.program = nullptr;
    return entry;
  };
}

TEST(CompileCacheTest, GetOrCompileCountsHitsAndMisses) {
  CompileCache cache;
  const MaliTimingParams timing;
  const kir::Program p = MakeKernel("k", 2);
  const std::uint64_t key = CompileCache::Key(p, timing);
  std::atomic<int> calls{0};
  const auto compile = CountedCompile(p, timing, &calls);

  const auto first = cache.GetOrCompile(key, compile);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const auto hit = cache.GetOrCompile(key, compile);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, *first);  // the published entry, not a recompile
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CompileCacheTest, FailedCompileIsReturnedAndNotCached) {
  CompileCache cache;
  int calls = 0;
  const auto failing = [&]() -> StatusOr<CompileCache::Entry> {
    ++calls;
    return InternalError("analysis failed");
  };
  for (int i = 0; i < 2; ++i) {
    const auto entry = cache.GetOrCompile(7, failing);
    ASSERT_FALSE(entry.ok());
    EXPECT_EQ(entry.status().message(), "analysis failed");
  }
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// Single flight: N threads missing on one key at once compile it once,
// all receive the one published entry, and the split is 1 miss + N-1 hits
// however the threads interleave.
TEST(CompileCacheTest, ConcurrentMissesOnOneKeyCompileOnce) {
  constexpr int kThreads = 8;
  CompileCache cache;
  const MaliTimingParams timing;
  const kir::Program p = MakeKernel("k", 2);
  const std::uint64_t key = CompileCache::Key(p, timing);
  std::atomic<int> calls{0};
  const auto counted = CountedCompile(p, timing, &calls);
  // A slow compile keeps the flight open while the other racers arrive.
  const auto compile = [&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return counted();
  };

  std::atomic<int> ready{0};
  std::vector<std::thread> racers;
  std::vector<std::shared_ptr<const CompileCache::Entry>> got(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    racers.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const auto entry = cache.GetOrCompile(key, compile);
      ASSERT_TRUE(entry.ok());
      got[static_cast<std::size_t>(i)] = *entry;
    });
  }
  for (std::thread& t : racers) t.join();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kThreads - 1));
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], got[0]);
  }
}

// The serve replay contract: the injector decisions a build consumes must
// not depend on cache warmth. Run the same faulty build sequence twice —
// once against a cold cache, once warm — and require the injector event
// logs to match exactly.
TEST(CompileCacheTest, FaultScheduleIsIdenticalOnHitAndMiss) {
  auto run_builds = [](CompileCache* cache,
                       std::vector<std::string>* events) {
    FaultOptions fault;
    fault.rate = 0.5;  // plenty of build trips
    fault.seed = 99;
    auto plan = fault::FaultPlan::FromOptions(fault);
    ASSERT_TRUE(plan.ok());
    fault::FaultInjector injector(*plan);

    ocl::Context context(sim::BackendKind::kMali);
    context.set_fault_injector(&injector);
    context.set_compile_cache(cache);
    for (int i = 0; i < 6; ++i) {
      std::shared_ptr<ocl::Program> program =
          context.CreateProgram({MakeKernel("k", 2)});
      (void)program->Build();  // faulty builds may fail; that's the point
    }
    for (const auto& event : injector.events()) {
      events->push_back(event.site + ":" + event.action);
    }
  };

  // Cold: every build misses (first) then hits (rest) one shared cache.
  CompileCache shared;
  std::vector<std::string> cold_events;
  run_builds(&shared, &cold_events);
  ASSERT_GT(shared.stats().hits, 0u);

  // Warm: same sequence against the now-warm cache. And a cacheless run:
  // every build pays the full compile.
  std::vector<std::string> warm_events;
  run_builds(&shared, &warm_events);
  std::vector<std::string> uncached_events;
  run_builds(nullptr, &uncached_events);

  EXPECT_EQ(cold_events, warm_events);
  EXPECT_EQ(cold_events, uncached_events);
  EXPECT_FALSE(cold_events.empty()) << "rate 0.5 must trip something";
}

}  // namespace
}  // namespace malisim::mali
