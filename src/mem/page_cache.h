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
#ifndef LEAP_SRC_MEM_PAGE_CACHE_H_
#define LEAP_SRC_MEM_PAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/mem/lru_list.h"
#include "src/sim/types.h"

namespace leap {

struct CacheEntry {
  Pfn pfn = kInvalidPfn;
  Pid pid = 0;
  bool prefetched = false;
  // When the backing read finishes; accesses before this wait the residue.
  SimTimeNs ready_at = 0;
  // When the entry was inserted (for eviction-wait accounting, Figure 4).
  SimTimeNs added_at = 0;
  // First-hit time; 0 while unreferenced. Drives timeliness (Figure 10b)
  // and the lazy-eviction waste measurement.
  SimTimeNs first_hit_at = 0;
  // Dirty file page awaiting writeback (VFS mode only).
  bool dirty = false;
};

class PageCache {
 public:
  // Inserts an entry; returns false if the slot is already cached.
  bool Insert(SwapSlot slot, const CacheEntry& entry);

  CacheEntry* Lookup(SwapSlot slot);
  const CacheEntry* Lookup(SwapSlot slot) const;

  // Removes the entry; returns it if present.
  std::optional<CacheEntry> Remove(SwapSlot slot);

  // Marks recency for cache-internal LRU eviction (used when the prefetch
  // cache itself is size-limited, Figure 12).
  void TouchLru(SwapSlot slot) { lru_.Touch(slot); }
  std::optional<SwapSlot> ColdestSlot() const { return lru_.Coldest(); }

  size_t size() const { return slab_.size() - free_.size(); }
  bool empty() const { return size() == 0; }

 private:
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  // Slab position of `slot`'s entry; kNone when not cached.
  uint32_t PositionOf(SwapSlot slot) const;

  std::vector<uint32_t> index_;   // slot -> slab position, kNone if absent
  std::vector<CacheEntry> slab_;  // pooled entries
  std::vector<uint32_t> free_;    // recycled slab positions
  LruList<SwapSlot> lru_;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_PAGE_CACHE_H_
