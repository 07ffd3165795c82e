// google-benchmark microbenchmarks of the Leap core: Boyer-Moore majority,
// FindTrend across history sizes, prefetch-window sizing, and the full
// OnAccess decision - the costs the paper argues are negligible (section
// 3.3: O(Hsize) time, O(1) space).
#include <benchmark/benchmark.h>

#include "src/core/leap.h"
#include "src/mem/page_cache.h"
#include "src/sim/rng.h"

namespace leap {
namespace {

void BM_BoyerMooreMajority(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  std::vector<PageDelta> window(n);
  for (auto& d : window) {
    d = rng.NextInt(-4, 4);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoyerMooreMajority(window));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_BoyerMooreMajority)->RangeMultiplier(2)->Range(8, 512)
    ->Complexity(benchmark::oN);

void BM_FindTrend_Regular(benchmark::State& state) {
  const size_t hsize = static_cast<size_t>(state.range(0));
  AccessHistory history(hsize);
  for (size_t i = 0; i < hsize; ++i) {
    history.Push(1);  // clean sequential trend: found in the small window
  }
  TrendDetector detector(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.FindTrend(history));
  }
}
BENCHMARK(BM_FindTrend_Regular)->RangeMultiplier(2)->Range(8, 512);

void BM_FindTrend_Random(benchmark::State& state) {
  // Worst case: no majority anywhere, every doubling window is scanned.
  const size_t hsize = static_cast<size_t>(state.range(0));
  AccessHistory history(hsize);
  Rng rng(43);
  for (size_t i = 0; i < hsize; ++i) {
    history.Push(rng.NextInt(-1'000'000, 1'000'000));
  }
  TrendDetector detector(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.FindTrend(history));
  }
  state.SetComplexityN(static_cast<int64_t>(hsize));
}
BENCHMARK(BM_FindTrend_Random)->RangeMultiplier(2)->Range(8, 512)
    ->Complexity(benchmark::oN);

void BM_PrefetchWindowCompute(benchmark::State& state) {
  PrefetchWindow window(8);
  bool flip = false;
  for (auto _ : state) {
    window.OnPrefetchHit();
    benchmark::DoNotOptimize(window.ComputeSize(flip));
    flip = !flip;
  }
}
BENCHMARK(BM_PrefetchWindowCompute);

void BM_LeapOnAccess_Sequential(benchmark::State& state) {
  LeapParams params;
  params.history_size = static_cast<size_t>(state.range(0));
  LeapPrefetcher prefetcher(params);
  SwapSlot addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prefetcher.OnMiss(addr++));
    prefetcher.OnPrefetchHit(addr);
  }
}
BENCHMARK(BM_LeapOnAccess_Sequential)->Arg(32)->Arg(128)->Arg(512);

void BM_LeapOnAccess_Random(benchmark::State& state) {
  LeapParams params;
  params.history_size = static_cast<size_t>(state.range(0));
  LeapPrefetcher prefetcher(params);
  Rng rng(44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prefetcher.OnMiss(rng.NextU64(1 << 24)));
  }
}
BENCHMARK(BM_LeapOnAccess_Random)->Arg(32)->Arg(128)->Arg(512);

void BM_ProcessTrackerFault(benchmark::State& state) {
  // Multi-process dispatch cost on top of the core decision.
  ProcessPageTracker tracker{LeapParams{}};
  Rng rng(45);
  SwapSlot addr = 0;
  for (auto _ : state) {
    const Pid pid = 1 + static_cast<Pid>(addr % 8);
    benchmark::DoNotOptimize(tracker.OnFault(pid, addr++));
  }
}
BENCHMARK(BM_ProcessTrackerFault);

// The machine's eager-eviction FIFO, threaded through the swap cache:
// insert and queue on prefetch, dequeue and free on hit, drop the oldest
// under pressure.
void BM_EagerFifoListOps(benchmark::State& state) {
  PageCache cache;
  SwapSlot next = 0;
  for (auto _ : state) {
    cache.Insert(next, CacheEntry{});
    cache.PushPrefetch(next);
    if (next % 2 == 0) {
      cache.RemovePrefetch(next / 2);
      cache.Remove(next / 2);
    }
    if (cache.prefetch_count() > 1024) {
      cache.Remove(*cache.OldestPrefetch());
    }
    ++next;
  }
}
BENCHMARK(BM_EagerFifoListOps);

}  // namespace
}  // namespace leap

BENCHMARK_MAIN();
