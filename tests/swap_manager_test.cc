#include "src/paging/swap_manager.h"

#include <gtest/gtest.h>

namespace leap {
namespace {

TEST(SwapManager, SlotsAssignedSequentially) {
  SwapManager swap;
  EXPECT_EQ(swap.SlotFor(1, 100), 0u);
  EXPECT_EQ(swap.SlotFor(1, 200), 1u);
  EXPECT_EQ(swap.SlotFor(1, 300), 2u);
}

TEST(SwapManager, PageKeepsItsSlotForLife) {
  SwapManager swap;
  const SwapSlot slot = swap.SlotFor(1, 100);
  swap.SlotFor(1, 200);
  EXPECT_EQ(swap.SlotFor(1, 100), slot);
}

TEST(SwapManager, ProcessesShareTheSwapSpace) {
  // The paper's section 2.3: pages of different processes interleave in
  // one shared swap area.
  SwapManager swap;
  const SwapSlot a = swap.SlotFor(1, 0);
  const SwapSlot b = swap.SlotFor(2, 0);
  const SwapSlot c = swap.SlotFor(1, 1);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
}

TEST(SwapManager, PagesEvictedTogetherGetContiguousSlots) {
  // Temporal locality in evictions becomes spatial locality in slots -
  // the property Leap's swap-offset trend detection relies on.
  SwapManager swap;
  for (Vpn v = 50; v < 60; ++v) {
    swap.SlotFor(7, v);
  }
  for (Vpn v = 50; v < 59; ++v) {
    EXPECT_EQ(*swap.FindSlot(7, v) + 1, *swap.FindSlot(7, v + 1));
  }
}

TEST(SwapManager, FindSlotDoesNotAllocate) {
  SwapManager swap;
  EXPECT_FALSE(swap.FindSlot(1, 42).has_value());
  EXPECT_EQ(swap.allocated_slots(), 0u);
}

TEST(SwapManager, OwnerReverseLookup) {
  SwapManager swap;
  const SwapSlot slot = swap.SlotFor(3, 77);
  const auto owner = swap.OwnerOf(slot);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->pid, 3u);
  EXPECT_EQ(owner->vpn, 77u);
  EXPECT_FALSE(swap.OwnerOf(999).has_value());
}

TEST(SwapManager, OwnerOfReleasedOrUnallocatedSlotIsEmpty) {
  SwapManager swap;
  const SwapSlot a = swap.SlotFor(1, 10);
  const SwapSlot b = swap.SlotFor(2, 10);
  swap.ReleaseSlot(1, 10);
  EXPECT_FALSE(swap.OwnerOf(a).has_value());
  EXPECT_EQ(swap.OwnerOf(b), (PidVpn{2, 10}));
  EXPECT_EQ(swap.high_water(), 2u);
  EXPECT_FALSE(swap.OwnerOf(swap.high_water()).has_value());
  EXPECT_FALSE(swap.OwnerOf(kInvalidSlot).has_value());
}

TEST(SwapManager, FindSlotOfUnknownPidOrVpn) {
  SwapManager swap;
  EXPECT_FALSE(swap.FindSlot(5, 0).has_value());  // no pid seen yet
  swap.SlotFor(1, 3);
  EXPECT_FALSE(swap.FindSlot(5, 3).has_value());  // pid past the table
  EXPECT_FALSE(swap.FindSlot(1, 4).has_value());  // vpn past the table
  EXPECT_FALSE(swap.FindSlot(1, 2).has_value());  // below, never evicted
  EXPECT_EQ(swap.SlotsOf(5), 0u);
  swap.ReleaseSlot(5, 3);  // unknown: a no-op
  swap.ReleaseSlot(1, 4);
  EXPECT_EQ(swap.allocated_slots(), 1u);
}

TEST(SwapManager, ReleaseDropsLiveCountsAndReallocatesFresh) {
  SwapManager swap;
  swap.SlotFor(1, 0);
  swap.SlotFor(1, 1);
  swap.SlotFor(2, 0);
  EXPECT_EQ(swap.allocated_slots(), 3u);
  swap.ReleaseSlot(1, 0);
  swap.ReleaseSlot(1, 0);  // second release is a no-op
  EXPECT_EQ(swap.allocated_slots(), 2u);
  EXPECT_EQ(swap.SlotsOf(1), 1u);
  EXPECT_EQ(swap.SlotsOf(2), 1u);
  EXPECT_FALSE(swap.FindSlot(1, 0).has_value());
  // The next eviction takes a fresh slot; the old one stays below the
  // high-water mark, ownerless.
  EXPECT_EQ(swap.SlotFor(1, 0), 3u);
  EXPECT_EQ(swap.high_water(), 4u);
  EXPECT_FALSE(swap.OwnerOf(0).has_value());
  EXPECT_EQ(swap.allocated_slots(), 3u);
}

}  // namespace
}  // namespace leap
