// Per-process virtual page table: vpn -> frame, plus dirty/accessed state.
//
// A direct-indexed vector of entries (src/container/dense_index.h), like
// the hardware walk it models: the lookup on every simulated access is a
// bounds check and one load, and steady-state map/unmap cycles never
// allocate. `pfn == kInvalidPfn` marks an absent vpn; the table grows to
// the largest vpn ever mapped and never shrinks.
#ifndef LEAP_SRC_MEM_PAGE_TABLE_H_
#define LEAP_SRC_MEM_PAGE_TABLE_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/types.h"

namespace leap {

struct PageTableEntry {
  Pfn pfn = kInvalidPfn;
  bool dirty = false;
};

class PageTable {
 public:
  // Maps vpn to pfn (which must be a real frame); remapping an already-
  // present vpn overwrites and clears the dirty bit.
  void Map(Vpn vpn, Pfn pfn);

  // Removes the mapping; returns the entry that was present, if any.
  std::optional<PageTableEntry> Unmap(Vpn vpn);

  // Mutable lookup; nullptr when not present. The pointer is valid until
  // the next Map of a vpn past the table's end (growth moves the entries);
  // Unmap never moves an entry.
  PageTableEntry* Find(Vpn vpn) {
    return const_cast<PageTableEntry*>(std::as_const(*this).Find(vpn));
  }
  const PageTableEntry* Find(Vpn vpn) const {
    return vpn < entries_.size() && entries_[vpn].pfn != kInvalidPfn
               ? &entries_[vpn]
               : nullptr;
  }

  bool IsPresent(Vpn vpn) const { return Find(vpn) != nullptr; }
  size_t resident_pages() const { return resident_; }

 private:
  std::vector<PageTableEntry> entries_;  // indexed by vpn
  size_t resident_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_PAGE_TABLE_H_
