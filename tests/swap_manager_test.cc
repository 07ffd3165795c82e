// Swap slots: the swap manager's per-slot state (allocation order, owners,
// live counts) and, through Machine, a page's slot kept in its page record
// (allocated on first swap-out, kept for life, released on re-dirty).
#include "src/paging/swap_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/runtime/machine.h"
#include "src/runtime/presets.h"

namespace leap {
namespace {

TEST(SwapManager, SlotsAssignedSequentially) {
  SwapManager swap;
  EXPECT_EQ(swap.Allocate(1, 100), 0u);
  EXPECT_EQ(swap.Allocate(1, 200), 1u);
  EXPECT_EQ(swap.Allocate(1, 300), 2u);
  EXPECT_EQ(swap.high_water(), 3u);
}

TEST(SwapManager, ProcessesShareTheSwapSpace) {
  // Interleaved evictions from two processes interleave their slots: the
  // shared-swap property Leap's per-process histories must tolerate.
  SwapManager swap;
  const SwapSlot a = swap.Allocate(1, 0);
  const SwapSlot b = swap.Allocate(2, 0);
  const SwapSlot c = swap.Allocate(1, 1);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1);
  EXPECT_EQ(swap.SlotsOf(1), 2u);
  EXPECT_EQ(swap.SlotsOf(2), 1u);
}

TEST(SwapManager, OwnerReverseLookup) {
  SwapManager swap;
  const SwapSlot slot = swap.Allocate(3, 77);
  const auto owner = swap.OwnerOf(slot);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->pid, 3u);
  EXPECT_EQ(owner->vpn, 77u);
  EXPECT_FALSE(swap.OwnerOf(999).has_value());
}

TEST(SwapManager, OwnerOfReleasedOrUnallocatedSlotIsEmpty) {
  SwapManager swap;
  const SwapSlot a = swap.Allocate(1, 10);
  const SwapSlot b = swap.Allocate(2, 10);
  swap.Release(a);
  EXPECT_FALSE(swap.OwnerOf(a).has_value());
  EXPECT_EQ(swap.OwnerOf(b), (PidVpn{2, 10}));
  EXPECT_EQ(swap.high_water(), 2u);
  EXPECT_FALSE(swap.OwnerOf(swap.high_water()).has_value());
  EXPECT_FALSE(swap.OwnerOf(kInvalidSlot).has_value());
}

TEST(SwapManager, ReleaseOfUnknownSlotIsANoOp) {
  SwapManager swap;
  EXPECT_EQ(swap.SlotsOf(5), 0u);  // no pid seen yet
  swap.Release(0);                 // empty swap area
  swap.Allocate(1, 3);
  swap.Release(1);  // at high_water
  swap.Release(kInvalidSlot);
  EXPECT_EQ(swap.allocated_slots(), 1u);
  EXPECT_EQ(swap.SlotsOf(1), 1u);
}

TEST(SwapManager, ReleaseDropsLiveCountsAndAllocatesFresh) {
  SwapManager swap;
  swap.Allocate(1, 0);
  swap.Allocate(1, 1);
  swap.Allocate(2, 0);
  EXPECT_EQ(swap.allocated_slots(), 3u);
  swap.Release(0);
  swap.Release(0);  // second release is a no-op
  EXPECT_EQ(swap.allocated_slots(), 2u);
  EXPECT_EQ(swap.SlotsOf(1), 1u);
  EXPECT_EQ(swap.SlotsOf(2), 1u);
  // A released slot is never handed out again: the next allocation is
  // fresh, above the high-water mark.
  EXPECT_EQ(swap.Allocate(1, 0), 3u);
  EXPECT_EQ(swap.high_water(), 4u);
  EXPECT_FALSE(swap.OwnerOf(0).has_value());
  EXPECT_EQ(swap.allocated_slots(), 3u);
}

// --- A page's slot, kept in its page record ----------------------------------

// A small lazy machine whose cgroup holds `limit` pages, so touching more
// evicts the coldest ones in touch order. No prefetching: the tests below
// observe slots, not cache contents.
class PageSlotTest : public ::testing::Test {
 protected:
  static constexpr size_t kLimit = 4;

  PageSlotTest()
      : machine_(DefaultVmmConfig(PrefetchKind::kNone, /*total_frames=*/256,
                                  /*seed=*/3)) {}

  AccessResult Touch(Pid pid, Vpn vpn, bool write = false) {
    now_ += 100000;
    return machine_.Access(pid, vpn, write, now_);
  }

  Machine machine_;
  SimTimeNs now_ = 0;
};

TEST_F(PageSlotTest, LookupDoesNotAllocate) {
  const Pid pid = machine_.CreateProcess(kLimit);
  EXPECT_FALSE(machine_.SlotOf(pid, 42).has_value());  // never touched
  Touch(pid, 42);
  EXPECT_FALSE(machine_.SlotOf(pid, 42).has_value());  // resident, never out
  EXPECT_FALSE(machine_.SlotOf(pid + 1, 42).has_value());  // unknown pid
  EXPECT_FALSE(machine_.SlotOf(pid, 1u << 20).has_value());  // past the end
  EXPECT_EQ(machine_.swapped_pages(pid), 0u);
}

TEST_F(PageSlotTest, PageKeepsItsSlotForLife) {
  const Pid pid = machine_.CreateProcess(kLimit);
  for (Vpn v = 0; v < 2 * kLimit; ++v) {
    Touch(pid, v);  // evicts 0..3
  }
  const auto slot = machine_.SlotOf(pid, 0);
  ASSERT_TRUE(slot.has_value());
  Touch(pid, 0);  // clean swap-in
  EXPECT_EQ(machine_.SlotOf(pid, 0), slot);  // kept while mapped
  for (Vpn v = 100; v < 100 + kLimit; ++v) {
    Touch(pid, v);  // evicts 0 again
  }
  ASSERT_FALSE(machine_.IsResident(pid, 0));
  EXPECT_EQ(machine_.SlotOf(pid, 0), slot);  // rewritten in place
}

TEST_F(PageSlotTest, PagesEvictedTogetherGetContiguousSlots) {
  const Pid pid = machine_.CreateProcess(kLimit);
  for (Vpn v = 0; v < 16 + kLimit; ++v) {
    Touch(pid, v);
  }
  for (Vpn v = 0; v + 1 < 16; ++v) {
    ASSERT_TRUE(machine_.SlotOf(pid, v).has_value());
    EXPECT_EQ(*machine_.SlotOf(pid, v) + 1, *machine_.SlotOf(pid, v + 1));
  }
  EXPECT_EQ(machine_.swapped_pages(pid), 16u);
}

TEST_F(PageSlotTest, ProcessesEvictingInTurnShareContiguousSlots) {
  const Pid a = machine_.CreateProcess(kLimit);
  const Pid b = machine_.CreateProcess(kLimit);
  for (Vpn v = 0; v < kLimit; ++v) {
    Touch(a, v);
    Touch(b, v);
  }
  std::vector<SwapSlot> order;
  for (Vpn v = kLimit; v < 2 * kLimit; ++v) {
    Touch(a, v);  // evicts a's vpn v - kLimit
    order.push_back(*machine_.SlotOf(a, v - kLimit));
    Touch(b, v);
    order.push_back(*machine_.SlotOf(b, v - kLimit));
  }
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_EQ(order[i] + 1, order[i + 1]);
  }
  EXPECT_EQ(machine_.swapped_pages(a), kLimit);
  EXPECT_EQ(machine_.swapped_pages(b), kLimit);
}

TEST_F(PageSlotTest, RedirtyReleasesTheSlotAndTheNextEvictionGetsAFreshOne) {
  const Pid pid = machine_.CreateProcess(kLimit);
  for (Vpn v = 0; v < 2 * kLimit; ++v) {
    Touch(pid, v);
  }
  const SwapSlot old_slot = *machine_.SlotOf(pid, 0);
  Touch(pid, 0, /*write=*/true);  // swap-in, then dirty: swap_free
  EXPECT_FALSE(machine_.SlotOf(pid, 0).has_value());
  // 0's slot was released and vpn 4 (evicted to make room) got a new one.
  EXPECT_EQ(machine_.swapped_pages(pid), kLimit);
  const SwapSlot newest = *machine_.SlotOf(pid, kLimit);
  for (Vpn v = 100; v < 100 + kLimit; ++v) {
    Touch(pid, v);  // evicts 5, 6, 7, then 0
  }
  ASSERT_TRUE(machine_.SlotOf(pid, 0).has_value());
  EXPECT_NE(*machine_.SlotOf(pid, 0), old_slot);
  EXPECT_EQ(*machine_.SlotOf(pid, 0), newest + kLimit);
  EXPECT_EQ(machine_.swapped_pages(pid), 2 * kLimit);
}

}  // namespace
}  // namespace leap
