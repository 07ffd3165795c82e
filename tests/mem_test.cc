// Memory substrate: frame pool, page records, page cache and its
// intrusive lists, cgroup.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "src/mem/cgroup.h"
#include "src/mem/frame_pool.h"
#include "src/mem/page_cache.h"
#include "src/mem/page_table.h"

namespace leap {
namespace {

// --- FramePool -------------------------------------------------------------

TEST(FramePool, AllocatesUpToCapacity) {
  FramePool pool(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.Allocate().has_value());
  }
  EXPECT_FALSE(pool.Allocate().has_value());
  EXPECT_EQ(pool.used_count(), 4u);
}

TEST(FramePool, FreeMakesFrameReusable) {
  FramePool pool(2);
  const Pfn a = *pool.Allocate();
  pool.Allocate();
  EXPECT_FALSE(pool.Allocate().has_value());
  pool.Free(a);
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_TRUE(pool.Allocate().has_value());
}

TEST(FramePool, DoubleFreeIgnored) {
  FramePool pool(2);
  const Pfn a = *pool.Allocate();
  pool.Free(a);
  pool.Free(a);  // must not corrupt the free list
  EXPECT_EQ(pool.free_count(), 2u);
  EXPECT_TRUE(pool.Allocate().has_value());
  EXPECT_TRUE(pool.Allocate().has_value());
  EXPECT_FALSE(pool.Allocate().has_value());
}

// The lazy pool hands out exactly the pfns a free list pre-filled with
// every frame (low pfns on top, frees pushed back on top) would: fresh
// frames in ascending order, freed ones most recent first.
TEST(FramePool, HandsOutThePrefilledListsSequence) {
  constexpr size_t kCapacity = 64;
  FramePool pool(kCapacity);
  std::vector<Pfn> prefilled;
  for (size_t i = kCapacity; i > 0; --i) {
    prefilled.push_back(static_cast<Pfn>(i - 1));
  }
  std::vector<bool> held(kCapacity, false);
  auto reference_alloc = [&]() -> std::optional<Pfn> {
    if (prefilled.empty()) {
      return std::nullopt;
    }
    const Pfn pfn = prefilled.back();
    prefilled.pop_back();
    return pfn;
  };
  // A scripted mix: bursts of allocations, frees of held frames in a
  // scrambled order, double frees and frees of never-allocated pfns.
  uint32_t x = 12345;
  for (int step = 0; step < 4000; ++step) {
    x = x * 1103515245u + 12345u;
    const uint32_t r = (x >> 16) % 10;
    if (r < 6) {
      const auto expected = reference_alloc();
      const auto got = pool.Allocate();
      ASSERT_EQ(got, expected) << "step " << step;
      if (got.has_value()) {
        held[*got] = true;
      }
    } else {
      const Pfn pfn = static_cast<Pfn>((x >> 8) % (kCapacity + 4));
      if (pfn < kCapacity && held[pfn]) {
        held[pfn] = false;
        prefilled.push_back(pfn);
      }
      pool.Free(pfn);  // double and out-of-range frees are ignored
    }
    ASSERT_EQ(pool.free_count(), prefilled.size()) << "step " << step;
  }
}

TEST(FramePool, IsAllocatedTracksState) {
  FramePool pool(3);
  const Pfn a = *pool.Allocate();
  EXPECT_TRUE(pool.IsAllocated(a));
  pool.Free(a);
  EXPECT_FALSE(pool.IsAllocated(a));
  EXPECT_FALSE(pool.IsAllocated(999));
}

// --- PageTable ---------------------------------------------------------------

TEST(PageTable, MapFindUnmap) {
  PageTable table;
  EXPECT_FALSE(table.IsPresent(10));
  table.Map(10, 3);
  ASSERT_TRUE(table.IsPresent(10));
  EXPECT_EQ(table.Find(10)->pfn, 3u);
  const auto removed = table.Unmap(10);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->pfn, 3u);
  EXPECT_FALSE(table.IsPresent(10));
}

TEST(PageTable, UnmapMissingReturnsNullopt) {
  PageTable table;
  EXPECT_FALSE(table.Unmap(5).has_value());
}

TEST(PageTable, DirtyBitRoundTrips) {
  PageTable table;
  table.Map(1, 1);
  table.Find(1)->dirty = true;
  EXPECT_TRUE(table.Find(1)->dirty);
  table.Map(1, 2);  // remap resets
  EXPECT_FALSE(table.Find(1)->dirty);
}

TEST(PageTable, VpnsPastTheEndAreAbsent) {
  PageTable table;
  EXPECT_EQ(table.Find(7), nullptr);  // empty table
  table.Map(3, 1);
  EXPECT_EQ(table.Find(4), nullptr);
  EXPECT_EQ(table.Find(1u << 20), nullptr);
  EXPECT_FALSE(table.Unmap(1u << 20).has_value());
  EXPECT_FALSE(table.IsPresent(2));  // below the end, never mapped
  EXPECT_EQ(table.resident_pages(), 1u);
}

TEST(PageTable, UnmapTwiceCountsOnce) {
  PageTable table;
  table.Map(5, 9);
  table.Map(5, 10);  // remap: still one resident page
  EXPECT_EQ(table.resident_pages(), 1u);
  EXPECT_TRUE(table.Unmap(5).has_value());
  EXPECT_FALSE(table.Unmap(5).has_value());
  EXPECT_EQ(table.resident_pages(), 0u);
}

TEST(PageTable, ResidentCount) {
  PageTable table;
  for (Vpn v = 0; v < 10; ++v) {
    table.Map(v, static_cast<Pfn>(v));
  }
  EXPECT_EQ(table.resident_pages(), 10u);
  table.Unmap(3);
  EXPECT_EQ(table.resident_pages(), 9u);
}

// The resident LRU lives in the page records: Map and Touch make a page
// the hottest, Unmap takes it off, Coldest is the reclaim victim.
TEST(PageTable, ResidentLruOrder) {
  PageTable table;
  EXPECT_FALSE(table.Coldest().has_value());
  for (const Vpn v : {1, 2, 3, 40}) {
    table.Map(v, static_cast<Pfn>(v));
  }
  EXPECT_EQ(table.Coldest(), 1u);
  table.Touch(1);
  EXPECT_EQ(table.Coldest(), 2u);
  table.Unmap(2);
  EXPECT_EQ(table.Coldest(), 3u);
  table.Map(3, 9);  // remap refreshes too
  EXPECT_EQ(table.Coldest(), 40u);
  std::vector<Vpn> drained;
  while (const auto v = table.Coldest()) {
    drained.push_back(*v);
    table.Unmap(*v);
  }
  EXPECT_EQ(drained, (std::vector<Vpn>{40, 1, 3}));
  EXPECT_EQ(table.resident_pages(), 0u);
  table.Map(2, 5);  // an unmapped record links again
  EXPECT_EQ(table.Coldest(), 2u);
}

// The swap slot sits in the same record and outlives the mapping: it is
// set on swap-out, kept across unmap and remap, and cleared on release.
TEST(PageTable, SlotOutlivesTheMapping) {
  PageTable table;
  EXPECT_EQ(table.SlotOf(7), kInvalidSlot);  // empty table
  table.Map(7, 1);
  EXPECT_EQ(table.SlotOf(7), kInvalidSlot);  // mapped, never swapped
  table.Unmap(7);
  table.SetSlot(7, 42);
  EXPECT_FALSE(table.IsPresent(7));
  EXPECT_EQ(table.SlotOf(7), 42u);
  table.Map(7, 2);
  EXPECT_EQ(table.SlotOf(7), 42u);
  EXPECT_EQ(table.Find(7)->slot, 42u);
  EXPECT_EQ(table.Unmap(7)->slot, 42u);
  table.SetSlot(7, kInvalidSlot);
  EXPECT_EQ(table.SlotOf(7), kInvalidSlot);
  EXPECT_EQ(table.SlotOf(1u << 20), kInvalidSlot);  // past the end
  table.SetSlot(100, 3);  // a swapped-out page past the end grows the table
  EXPECT_EQ(table.SlotOf(100), 3u);
  EXPECT_FALSE(table.IsPresent(100));
  EXPECT_EQ(table.resident_pages(), 0u);
}

// --- PageCache ---------------------------------------------------------------

TEST(PageCache, InsertLookupRemove) {
  PageCache cache;
  CacheEntry entry;
  entry.pfn = 7;
  entry.ready_at = 1234;
  EXPECT_TRUE(cache.Insert(100, entry));
  EXPECT_FALSE(cache.Insert(100, entry));  // duplicate
  ASSERT_NE(cache.Lookup(100), nullptr);
  EXPECT_EQ(cache.Lookup(100)->pfn, 7u);
  const auto removed = cache.Remove(100);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->pfn, 7u);
  EXPECT_EQ(cache.Lookup(100), nullptr);
}

TEST(PageCache, SlotsPastTheIndexAreAbsent) {
  PageCache cache;
  EXPECT_EQ(cache.Lookup(50), nullptr);  // empty index
  EXPECT_FALSE(cache.Remove(50).has_value());
  cache.Insert(2, CacheEntry{});
  EXPECT_EQ(cache.Lookup(50), nullptr);
  EXPECT_FALSE(cache.Remove(50).has_value());
  EXPECT_EQ(std::as_const(cache).Lookup(1 << 20), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PageCache, ReinsertAfterRemove) {
  PageCache cache;
  CacheEntry first;
  first.pfn = 1;
  first.ready_at = 10;
  ASSERT_TRUE(cache.Insert(4, first));
  ASSERT_TRUE(cache.Remove(4).has_value());
  EXPECT_EQ(cache.Lookup(4), nullptr);
  EXPECT_TRUE(cache.empty());
  CacheEntry second;
  second.pfn = 2;
  ASSERT_TRUE(cache.Insert(4, second));
  ASSERT_NE(cache.Lookup(4), nullptr);
  EXPECT_EQ(cache.Lookup(4)->pfn, 2u);
  EXPECT_EQ(cache.Lookup(4)->ready_at, 0u);  // nothing of the old entry
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PageCache, LookupSurvivesRemoveOfAnotherSlot) {
  PageCache cache;
  for (SwapSlot s = 0; s < 16; ++s) {
    CacheEntry entry;
    entry.pfn = static_cast<Pfn>(100 + s);
    cache.Insert(s, entry);
  }
  CacheEntry* kept = cache.Lookup(9);
  ASSERT_NE(kept, nullptr);
  for (SwapSlot s = 0; s < 16; ++s) {
    if (s != 9) {
      ASSERT_TRUE(cache.Remove(s).has_value());
    }
  }
  EXPECT_EQ(kept, cache.Lookup(9));
  EXPECT_EQ(kept->pfn, 109u);
  kept->dirty = true;
  EXPECT_TRUE(cache.Remove(9)->dirty);
}

TEST(PageCache, LruEvictionOrder) {
  PageCache cache;
  for (SwapSlot s = 0; s < 4; ++s) {
    cache.Insert(s, CacheEntry{});
  }
  cache.TouchLru(0);  // 0 becomes hottest
  EXPECT_EQ(cache.ColdestSlot(), 1u);
}

// kswapd's TTL walk: the prefetch FIFO is dequeued oldest-first and the
// walk stops at the first entry that is still young, even when a later
// (out-of-order) insert is already old.
TEST(PageCache, PrefetchWalkRetiresOldestFirstAndStopsAtFirstYoung) {
  PageCache cache;
  const SimTimeNs added[] = {100, 200, 300, 900, 250};
  for (SwapSlot s = 0; s < 5; ++s) {
    CacheEntry entry;
    entry.added_at = added[s];
    ASSERT_TRUE(cache.Insert(s, entry));
    ASSERT_TRUE(cache.PushPrefetch(s));
  }
  EXPECT_FALSE(cache.PushPrefetch(0));  // FIFO position is pinned at insert
  cache.RemovePrefetch(1);  // consumed: leaves the walk, not the cache
  ASSERT_NE(cache.Lookup(1), nullptr);

  constexpr SimTimeNs kExpiredBefore = 500;
  std::vector<SwapSlot> retired;
  while (const auto oldest = cache.OldestPrefetch()) {
    if (cache.Lookup(*oldest)->added_at >= kExpiredBefore) {
      break;
    }
    ASSERT_TRUE(cache.Remove(*oldest).has_value());
    retired.push_back(*oldest);
  }
  EXPECT_EQ(retired, (std::vector<SwapSlot>{0, 2}));
  // Slot 4 is old but sits behind the young slot 3.
  EXPECT_EQ(cache.OldestPrefetch(), 3u);
  EXPECT_EQ(cache.prefetch_count(), 2u);
  EXPECT_EQ(cache.size(), 3u);
}

// One Remove takes an entry off the cache LRU, the prefetch FIFO and the
// stale list together; its neighbours on each list close up around it.
TEST(PageCache, RemoveUnlinksFromEveryList) {
  PageCache cache;
  for (SwapSlot s = 10; s < 14; ++s) {
    ASSERT_TRUE(cache.Insert(s, CacheEntry{}));
    ASSERT_TRUE(cache.PushPrefetch(s));
    ASSERT_TRUE(cache.PushStale(s));
  }
  ASSERT_TRUE(cache.Remove(10).has_value());  // the oldest on every list
  ASSERT_TRUE(cache.Remove(12).has_value());  // a middle one
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.prefetch_count(), 2u);
  EXPECT_EQ(cache.stale_count(), 2u);
  EXPECT_EQ(cache.ColdestSlot(), 11u);
  EXPECT_EQ(cache.OldestPrefetch(), 11u);
  EXPECT_EQ(cache.OldestStale(), 11u);
  ASSERT_TRUE(cache.Remove(11).has_value());
  EXPECT_EQ(cache.ColdestSlot(), 13u);
  EXPECT_EQ(cache.OldestPrefetch(), 13u);
  EXPECT_EQ(cache.OldestStale(), 13u);
  ASSERT_TRUE(cache.Remove(13).has_value());
  EXPECT_TRUE(cache.empty());
  EXPECT_FALSE(cache.ColdestSlot().has_value());
  EXPECT_FALSE(cache.OldestPrefetch().has_value());
  EXPECT_FALSE(cache.OldestStale().has_value());
  EXPECT_EQ(cache.prefetch_count(), 0u);
  EXPECT_EQ(cache.stale_count(), 0u);
  // A slab position reused by a new entry starts on no queue.
  ASSERT_TRUE(cache.Insert(20, CacheEntry{}));
  EXPECT_EQ(cache.prefetch_count(), 0u);
  EXPECT_EQ(cache.stale_count(), 0u);
  EXPECT_EQ(cache.ColdestSlot(), 20u);
}

// Touching the cache LRU reorders only the LRU: the FIFO stays in prefetch
// order and the stale list in consumption order.
TEST(PageCache, TouchLruLeavesTheQueuesInOrder) {
  PageCache cache;
  for (SwapSlot s = 0; s < 4; ++s) {
    ASSERT_TRUE(cache.Insert(s, CacheEntry{}));
    ASSERT_TRUE(cache.PushPrefetch(s));
  }
  ASSERT_TRUE(cache.PushStale(2));
  ASSERT_TRUE(cache.PushStale(0));
  cache.TouchLru(0);
  cache.TouchLru(1);
  EXPECT_EQ(cache.ColdestSlot(), 2u);
  std::vector<SwapSlot> fifo;
  while (const auto oldest = cache.OldestPrefetch()) {
    fifo.push_back(*oldest);
    cache.RemovePrefetch(*oldest);
  }
  EXPECT_EQ(fifo, (std::vector<SwapSlot>{0, 1, 2, 3}));
  EXPECT_EQ(cache.OldestStale(), 2u);
  EXPECT_EQ(cache.size(), 4u);  // dequeuing left every entry cached
}

// The cache LRU, the prefetch FIFO and the stale list, each oldest first.
struct CacheOrders {
  std::vector<SwapSlot> lru, fifo, stale;
  bool operator==(const CacheOrders&) const = default;
};

CacheOrders OrdersOf(const PageCache& cache) {
  CacheOrders orders;
  // Each list is drained from its own copy: Remove unlinks from all three.
  const auto drain = [&cache](std::vector<SwapSlot>& out, auto oldest) {
    PageCache copy = cache;
    while (const std::optional<SwapSlot> slot = oldest(copy)) {
      out.push_back(*slot);
      copy.Remove(*slot);
    }
  };
  drain(orders.lru, [](const PageCache& c) { return c.ColdestSlot(); });
  drain(orders.fifo, [](const PageCache& c) { return c.OldestPrefetch(); });
  drain(orders.stale, [](const PageCache& c) { return c.OldestStale(); });
  return orders;
}

// An eager hit removes the entry it would touch, so Machine skips the
// touch: unlinking an entry leaves the same three lists whether or not it
// was moved to the hot end first.
TEST(PageCache, TouchThenRemoveLeavesTheSameListsAsRemove) {
  PageCache base;
  for (SwapSlot s = 0; s < 6; ++s) {
    ASSERT_TRUE(base.Insert(s, CacheEntry{}));
  }
  for (SwapSlot s : {4, 1, 3, 0}) {
    ASSERT_TRUE(base.PushPrefetch(s));
  }
  for (SwapSlot s : {5, 3, 2}) {
    ASSERT_TRUE(base.PushStale(s));
  }
  base.TouchLru(2);
  for (SwapSlot victim = 0; victim < 6; ++victim) {
    PageCache touched = base;
    touched.TouchLru(victim);
    ASSERT_TRUE(touched.Remove(victim).has_value());
    PageCache removed = base;
    ASSERT_TRUE(removed.Remove(victim).has_value());
    const CacheOrders orders = OrdersOf(removed);
    EXPECT_EQ(OrdersOf(touched), orders) << "victim " << victim;
    EXPECT_EQ(orders.lru.size(), 5u);
  }
}

// --- Cgroup ------------------------------------------------------------------

TEST(Cgroup, UnlimitedNeverOverLimit) {
  Cgroup cg(0);
  cg.Charge(1000000);
  EXPECT_FALSE(cg.OverLimit());
  EXPECT_EQ(cg.ExcessPages(), 0u);
}

TEST(Cgroup, OverLimitAndExcess) {
  Cgroup cg(10);
  cg.Charge(10);
  EXPECT_FALSE(cg.OverLimit());
  cg.Charge();
  EXPECT_TRUE(cg.OverLimit());
  EXPECT_EQ(cg.ExcessPages(), 1u);
  cg.Uncharge();
  EXPECT_FALSE(cg.OverLimit());
}

TEST(Cgroup, UnchargeClampsAtZero) {
  Cgroup cg(5);
  cg.Charge(2);
  cg.Uncharge(10);
  EXPECT_EQ(cg.resident_pages(), 0u);
}

}  // namespace
}  // namespace leap
