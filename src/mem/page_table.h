// Per-process page records: one per vpn, holding everything the host keeps
// about that page.
//
// A record is the PTE (frame and dirty bit), the page's swap slot and its
// links on the process's resident LRU - the kernel keeps the swap entry in
// the PTE and threads its LRU lists through struct page, and one fault here
// likewise reads one record instead of a page table, a swap map and an LRU
// index. The records are a direct-indexed vector (src/container/
// dense_index.h) grown to the largest vpn ever written and never shrunk, so
// a lookup is a bounds check and one load and steady-state map/unmap cycles
// never allocate. `pfn == kInvalidPfn` marks a vpn that is not mapped; its
// record may still carry a slot (a swapped-out page).
//
// The resident LRU (src/container/index_list.h) links the mapped vpns,
// hottest first: Map and Touch move a page to the hot end, Coldest is the
// reclaim victim. Every mapped vpn is on it, so its length is the resident
// count.
#ifndef LEAP_SRC_MEM_PAGE_TABLE_H_
#define LEAP_SRC_MEM_PAGE_TABLE_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/container/index_list.h"
#include "src/sim/types.h"

namespace leap {

struct PageTableEntry {
  // Swap slot backing the page; kInvalidSlot until its first swap-out, and
  // kept across unmap and remap until the page is re-dirtied.
  SwapSlot slot = kInvalidSlot;
  Pfn pfn = kInvalidPfn;
  ListLinks lru;  // resident-LRU neighbours (vpns)
  bool dirty = false;
};
static_assert(sizeof(PageTableEntry) <= 24, "one small record per vpn");

class PageTable {
 public:
  // Maps vpn to pfn (which must be a real frame) as the hottest resident
  // page; remapping an already-present vpn overwrites and clears the dirty
  // bit. The slot is left as it is. vpn must be below kNilIndex (the links
  // are u32).
  void Map(Vpn vpn, Pfn pfn);

  // Removes the mapping and its LRU position, keeping the slot; returns the
  // entry that was present, if any.
  std::optional<PageTableEntry> Unmap(Vpn vpn);

  // Marks a mapped vpn most recently used.
  void Touch(Vpn vpn) { lru_.Touch(entries_, Index(vpn)); }

  // The least recently used mapped vpn.
  std::optional<Vpn> Coldest() const {
    if (lru_.empty()) {
      return std::nullopt;
    }
    return lru_.Coldest();
  }

  // Mutable lookup of a mapped vpn; nullptr when not mapped. The pointer is
  // valid until the next write to a vpn past the table's end (growth moves
  // the entries).
  PageTableEntry* Find(Vpn vpn) {
    return const_cast<PageTableEntry*>(std::as_const(*this).Find(vpn));
  }
  const PageTableEntry* Find(Vpn vpn) const {
    return vpn < entries_.size() && entries_[vpn].pfn != kInvalidPfn
               ? &entries_[vpn]
               : nullptr;
  }

  // The page's swap slot, mapped or not; kInvalidSlot when it has none.
  SwapSlot SlotOf(Vpn vpn) const {
    return vpn < entries_.size() ? entries_[vpn].slot : kInvalidSlot;
  }
  // Records (or, with kInvalidSlot, clears) the page's swap slot.
  void SetSlot(Vpn vpn, SwapSlot slot);

  bool IsPresent(Vpn vpn) const { return Find(vpn) != nullptr; }
  size_t resident_pages() const { return lru_.size(); }

 private:
  static uint32_t Index(Vpn vpn) { return static_cast<uint32_t>(vpn); }

  std::vector<PageTableEntry> entries_;  // indexed by vpn
  IndexList<PageTableEntry, &PageTableEntry::lru> lru_;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_PAGE_TABLE_H_
