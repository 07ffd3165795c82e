#include "src/mem/page_table.h"

#include <cassert>

#include "src/container/dense_index.h"

namespace leap {

void PageTable::Map(Vpn vpn, Pfn pfn) {
  assert(pfn != kInvalidPfn && "kInvalidPfn marks an absent vpn");
  assert(vpn < kNilIndex && "LRU links are u32 vpns");
  PageTableEntry& entry = GrowToFit(entries_, vpn, PageTableEntry{});
  entry.pfn = pfn;
  entry.dirty = false;
  lru_.Touch(entries_, Index(vpn));
}

std::optional<PageTableEntry> PageTable::Unmap(Vpn vpn) {
  PageTableEntry* entry = Find(vpn);
  if (entry == nullptr) {
    return std::nullopt;
  }
  lru_.Remove(entries_, Index(vpn));
  const PageTableEntry removed = *entry;
  entry->pfn = kInvalidPfn;
  entry->dirty = false;
  return removed;
}

void PageTable::SetSlot(Vpn vpn, SwapSlot slot) {
  GrowToFit(entries_, vpn, PageTableEntry{}).slot = slot;
}

}  // namespace leap
