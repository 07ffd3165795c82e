// PrefetchFifoLruList: the bookkeeping behind Leap's eager cache eviction
// (paper section 4.3).
//
// Every prefetched page is appended at the tail. When a prefetched page is
// consumed (first cache hit + page-table update), Leap frees its cache entry
// immediately instead of leaving it for kswapd's LRU scan. If reclaim needs
// to evict prefetched pages that were never consumed, they leave in FIFO
// order - they have no access history to rank them by.
//
// Thin wrapper over the pooled LruList: Insert pins FIFO position at
// prefetch time (duplicates don't refresh), and the list's cold end is the
// oldest prefetch. All operations are allocation-free in steady state.
// The machine keeps one in both eviction modes: it holds exactly the
// unconsumed prefetched pages, which kswapd's TTL aging walks oldest-first.
#ifndef LEAP_SRC_CORE_EAGER_EVICTION_H_
#define LEAP_SRC_CORE_EAGER_EVICTION_H_

#include <cstddef>
#include <optional>

#include "src/mem/lru_list.h"
#include "src/sim/types.h"

namespace leap {

class PrefetchFifoLruList {
 public:
  // Appends a newly prefetched page at the tail. Duplicate inserts refresh
  // nothing: FIFO position is set once at prefetch time.
  void OnPrefetched(SwapSlot slot) { list_.Insert(slot); }

  // Removes the page (consumed by a hit, eagerly freed). Returns true when
  // the page was present.
  bool OnConsumed(SwapSlot slot) { return list_.Remove(slot); }

  // Pops the oldest unconsumed prefetched page for eviction under memory
  // pressure; nullopt when empty.
  std::optional<SwapSlot> PopOldest() { return list_.PopColdest(); }

  // The oldest unconsumed prefetched page, left in place (kswapd's TTL
  // walk peeks, then pops only what has expired); nullopt when empty.
  std::optional<SwapSlot> Oldest() const { return list_.Coldest(); }

  bool Contains(SwapSlot slot) const { return list_.Contains(slot); }
  size_t size() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

  void Clear() { list_.Clear(); }

 private:
  LruList<SwapSlot> list_;  // front = newest prefetch, cold end = oldest
};

}  // namespace leap

#endif  // LEAP_SRC_CORE_EAGER_EVICTION_H_
