// Leap's eager eviction: the machine keeps its unconsumed prefetches in a
// FIFO threaded through the swap cache's entries, evicts the oldest first
// under the prefetch-cache cap, and frees a prefetched page as soon as it
// is consumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "src/mem/page_cache.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"

namespace leap {
namespace {

// Pops the oldest queued prefetch the way eager eviction drops it.
std::optional<SwapSlot> EvictOldestPrefetch(PageCache& cache) {
  const auto oldest = cache.OldestPrefetch();
  if (oldest.has_value()) {
    cache.Remove(*oldest);
  }
  return oldest;
}

// A duplicate push keeps the slot's original FIFO position.
TEST(PrefetchFifo, DuplicateInsertKeepsFifoPosition) {
  PageCache cache;
  for (const SwapSlot s : {7, 8}) {
    ASSERT_TRUE(cache.Insert(s, CacheEntry{}));
  }
  EXPECT_TRUE(cache.PushPrefetch(7));
  EXPECT_TRUE(cache.PushPrefetch(8));
  EXPECT_FALSE(cache.PushPrefetch(7));
  EXPECT_EQ(cache.prefetch_count(), 2u);
  EXPECT_EQ(EvictOldestPrefetch(cache), 7u);
  EXPECT_EQ(EvictOldestPrefetch(cache), 8u);
  EXPECT_FALSE(EvictOldestPrefetch(cache).has_value());
}

// Hits (off the FIFO, entry consumed) and evictions of the oldest in any
// interleaving leave the rest draining in prefetch order.
TEST(PrefetchFifo, InterleavedInsertRemovePopDrainsInInsertionOrder) {
  PageCache cache;
  for (SwapSlot s = 0; s < 1000; ++s) {
    ASSERT_TRUE(cache.Insert(s, CacheEntry{}));
    ASSERT_TRUE(cache.PushPrefetch(s));
    if (s % 3 == 0) {
      cache.RemovePrefetch(s / 2);
      cache.Remove(s / 2);
    }
    if (s % 7 == 0) {
      EvictOldestPrefetch(cache);
    }
  }
  ASSERT_GT(cache.prefetch_count(), 0u);
  SwapSlot prev = *EvictOldestPrefetch(cache);
  while (const auto slot = EvictOldestPrefetch(cache)) {
    EXPECT_GT(*slot, prev);
    prev = *slot;
  }
  EXPECT_TRUE(cache.empty());
}

// Every issued prefetch is consumed (a hit), dropped unused, or still
// waiting in the FIFO. Short sequential runs at scattered offsets leave
// prefetches past each run's end unconsumed, so the prefetch-cache cap
// binds and evicts them oldest first.
TEST(EagerEviction, FifoBalancesIssuedPrefetchesAfterEveryAccess) {
  constexpr size_t kCap = 8;
  constexpr Vpn kPages = 2048;
  MachineConfig config = LeapVmmConfig(/*total_frames=*/4096, /*seed=*/11);
  config.prefetch_cache_limit_pages = kCap;
  Machine machine(config);
  const Pid pid = machine.CreateProcess(64);
  SimTimeNs now = 0;
  size_t most_unconsumed = 0;
  auto access = [&](Vpn vpn, bool write) {
    now += 20000;
    machine.Access(pid, vpn, write, now);
    const Counters& c = machine.counters();
    ASSERT_EQ(c.Get(counter::kPrefetchIssued),
              c.Get(counter::kPrefetchHits) + c.Get(counter::kPrefetchUnused) +
                  machine.unconsumed_prefetched())
        << "page " << vpn;
    ASSERT_LE(machine.unconsumed_prefetched(), kCap);
    most_unconsumed =
        std::max(most_unconsumed, machine.unconsumed_prefetched());
  };
  for (Vpn v = 0; v < kPages; ++v) {
    access(v, /*write=*/true);
  }
  for (Vpn run = 0; run < 200; ++run) {
    const Vpn start = (run * 997) % (kPages - 16);
    for (Vpn v = start; v < start + 12; ++v) {
      access(v, /*write=*/false);
    }
  }
  EXPECT_EQ(most_unconsumed, kCap);
  EXPECT_GT(machine.counters().Get(counter::kPrefetchHits), 100u);
  EXPECT_GT(machine.counters().Get(counter::kPrefetchUnused), 0u);
  EXPECT_GT(machine.counters().Get(counter::kEagerFrees), 0u);
  EXPECT_EQ(machine.stale_entries(), 0u);
}

}  // namespace
}  // namespace leap
