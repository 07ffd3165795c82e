// Swap cache analog: backing-store offset -> cached frame.
//
// Pages land here on swap-in (demand or prefetch); a fault that finds its
// slot here is a cache hit. Entries carry the I/O completion time so an
// access racing an in-flight prefetch blocks for the residual latency
// instead of re-issuing the read - the kernel's "page locked until read
// completes" behavior.
//
// Indexed like the kernel's swap cache, by swap offset: a direct-indexed
// slot -> position vector (src/container/dense_index.h) into a pooled slab
// of entries with a free list. Lookup is a bounds check and two loads, and
// a Remove moves no other entry: a pointer from Lookup stays valid until
// that slot is removed or the next Insert (which may grow the slab).
//
// The entries also carry the cache's three orderings as intrusive links
// (src/container/index_list.h), the way the kernel threads its lists
// through struct page:
//   - the cache LRU, hottest first: Insert links at the hot end, TouchLru
//     moves there, ColdestSlot is the lazy reclaim victim;
//   - the unconsumed-prefetch FIFO, in prefetch order: Leap's eager-
//     eviction victim order (paper section 4.3; unconsumed prefetches have
//     no access history to rank them), kswapd's TTL walk and, by its size,
//     the in-flight prefetch count;
//   - the stale list of consumed lazy-mode entries (the frame moved to the
//     process, the entry lingers), in consumption order: kswapd's retire
//     queue.
// The two queues insert only if absent, so a slot's place is set once.
// Remove takes an entry off every list it is on.
#ifndef LEAP_SRC_MEM_PAGE_CACHE_H_
#define LEAP_SRC_MEM_PAGE_CACHE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/container/dense_index.h"
#include "src/container/index_list.h"
#include "src/sim/types.h"

namespace leap {

struct CacheEntry {
  Pfn pfn = kInvalidPfn;
  Pid pid = 0;
  // When the backing read finishes; accesses before this wait the residue.
  SimTimeNs ready_at = 0;
  // When the entry was inserted (for eviction-wait accounting, Figure 4).
  SimTimeNs added_at = 0;
  // First-hit time; 0 while unreferenced. Drives timeliness (Figure 10b)
  // and the lazy-eviction waste measurement.
  SimTimeNs first_hit_at = 0;
  bool prefetched = false;
  // Dirty file page awaiting writeback (VFS mode only).
  bool dirty = false;
};

class PageCache {
 public:
  // Inserts an entry as the hottest on the cache LRU; returns false if the
  // slot is already cached.
  bool Insert(SwapSlot slot, const CacheEntry& entry);

  CacheEntry* Lookup(SwapSlot slot) {
    const uint32_t pos = PositionOf(slot);
    return pos == kNilIndex ? nullptr : &nodes_[pos].entry;
  }
  const CacheEntry* Lookup(SwapSlot slot) const {
    const uint32_t pos = PositionOf(slot);
    return pos == kNilIndex ? nullptr : &nodes_[pos].entry;
  }

  // Removes the entry, and takes it off every list it is on; returns it if
  // present.
  std::optional<CacheEntry> Remove(SwapSlot slot);

  // Cache LRU (`slot` must be cached).
  void TouchLru(SwapSlot slot) {
    const uint32_t pos = PositionOf(slot);
    assert(pos != kNilIndex && "only a cached slot can be touched");
    lru_.Touch(nodes_, pos);
  }
  std::optional<SwapSlot> ColdestSlot() const {
    return SlotAt(lru_.Coldest());
  }

  // Unconsumed-prefetch FIFO. PushPrefetch queues a cached slot unless it
  // is already queued (returns whether it did); RemovePrefetch takes it off
  // the queue only (a first hit).
  bool PushPrefetch(SwapSlot slot) { return PushOnce(fifo_, slot); }
  void RemovePrefetch(SwapSlot slot);
  std::optional<SwapSlot> OldestPrefetch() const {
    return SlotAt(fifo_.Coldest());
  }
  size_t prefetch_count() const { return fifo_.size(); }

  // Stale list of consumed lazy-mode entries, same queue rules.
  bool PushStale(SwapSlot slot) { return PushOnce(stale_, slot); }
  std::optional<SwapSlot> OldestStale() const {
    return SlotAt(stale_.Coldest());
  }
  size_t stale_count() const { return stale_.size(); }

  size_t size() const { return nodes_.size() - free_.size(); }
  bool empty() const { return size() == 0; }

 private:
  struct Node {
    CacheEntry entry;
    SwapSlot slot = kInvalidSlot;
    ListLinks lru;
    ListLinks fifo;
    ListLinks stale;
  };

  // Slab position of `slot`'s entry; kNilIndex when not cached.
  uint32_t PositionOf(SwapSlot slot) const {
    return ReadOr(index_, slot, kNilIndex);
  }
  std::optional<SwapSlot> SlotAt(uint32_t pos) const {
    if (pos == kNilIndex) {
      return std::nullopt;
    }
    return nodes_[pos].slot;
  }
  template <typename List>
  bool PushOnce(List& list, SwapSlot slot) {
    const uint32_t pos = PositionOf(slot);
    assert(pos != kNilIndex && "only a cached slot can be queued");
    if (list.Contains(nodes_, pos)) {
      return false;
    }
    list.PushFront(nodes_, pos);
    return true;
  }

  std::vector<uint32_t> index_;  // slot -> slab position, kNilIndex if absent
  std::vector<Node> nodes_;      // pooled entries
  std::vector<uint32_t> free_;   // recycled slab positions
  IndexList<Node, &Node::lru> lru_;
  IndexList<Node, &Node::fifo> fifo_;
  IndexList<Node, &Node::stale> stale_;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_PAGE_CACHE_H_
