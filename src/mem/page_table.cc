#include "src/mem/page_table.h"

#include <cassert>

#include "src/container/dense_index.h"

namespace leap {

void PageTable::Map(Vpn vpn, Pfn pfn) {
  assert(pfn != kInvalidPfn && "kInvalidPfn marks an absent vpn");
  PageTableEntry& entry = GrowToFit(entries_, vpn, PageTableEntry{});
  if (entry.pfn == kInvalidPfn) {
    ++resident_;
  }
  entry = PageTableEntry{pfn, false};
}

std::optional<PageTableEntry> PageTable::Unmap(Vpn vpn) {
  PageTableEntry* entry = Find(vpn);
  if (entry == nullptr) {
    return std::nullopt;
  }
  const PageTableEntry removed = *entry;
  *entry = PageTableEntry{};
  --resident_;
  return removed;
}

}  // namespace leap
