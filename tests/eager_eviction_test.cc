// Leap's eager eviction: the machine keeps its unconsumed prefetches in a
// FIFO (a LruList<SwapSlot> used with Insert only), evicts the oldest first
// under the prefetch-cache cap, and frees a prefetched page as soon as it
// is consumed.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/mem/lru_list.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"

namespace leap {
namespace {

// A duplicate Insert keeps the key's original FIFO position.
TEST(PrefetchFifo, DuplicateInsertKeepsFifoPosition) {
  LruList<SwapSlot> fifo;
  EXPECT_TRUE(fifo.Insert(7));
  EXPECT_TRUE(fifo.Insert(8));
  EXPECT_FALSE(fifo.Insert(7));
  EXPECT_EQ(fifo.size(), 2u);
  EXPECT_EQ(fifo.PopColdest(), 7u);
  EXPECT_EQ(fifo.PopColdest(), 8u);
}

TEST(PrefetchFifo, InterleavedInsertRemovePopDrainsInInsertionOrder) {
  LruList<SwapSlot> fifo;
  for (SwapSlot s = 0; s < 1000; ++s) {
    fifo.Insert(s);
    if (s % 3 == 0) {
      fifo.Remove(s / 2);
    }
    if (s % 7 == 0) {
      fifo.PopColdest();
    }
  }
  ASSERT_FALSE(fifo.empty());
  SwapSlot prev = *fifo.PopColdest();
  while (const auto slot = fifo.PopColdest()) {
    EXPECT_GT(*slot, prev);
    prev = *slot;
  }
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
