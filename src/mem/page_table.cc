#include "src/mem/page_table.h"

namespace leap {

void PageTable::Map(Vpn vpn, Pfn pfn) {
  entries_[vpn] = PageTableEntry{pfn, false};
}

std::optional<PageTableEntry> PageTable::Unmap(Vpn vpn) {
  return entries_.Take(vpn);
}

PageTableEntry* PageTable::Find(Vpn vpn) { return entries_.Find(vpn); }

const PageTableEntry* PageTable::Find(Vpn vpn) const {
  return entries_.Find(vpn);
}

}  // namespace leap
