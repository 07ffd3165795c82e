// Direct-indexed tables for dense integer keys.
//
// Vpns and swap slots are array indices, not sparse identifiers: every
// access stream draws vpns from [0, footprint_pages()) (Machine::Access
// rejects vpn >= kMaxVpn), the swap manager hands slots out from one bump
// counter, and VFS slots are vpns. The per-host tables keyed by them are
// therefore plain std::vectors - a lookup is one bounds check and one load,
// the way the kernel keeps the swap entry in the PTE and the swap cache in
// a tree indexed by swap offset. There is one table per key space, not one
// per attribute: a process's page records (PTE, swap slot and LRU links,
// src/mem/page_table.h) are indexed by vpn, and the swap manager's owners,
// the swap cache's index and the tiered store's records (tier, heat and
// tier-list links, src/tier/tiered_store.h) by slot; lists over those
// records are threaded through them (src/container/index_list.h).
//
// A table grows (std::vector's geometric capacity) to the largest key
// written; a key past its end reads as the table's "absent" sentinel, so
// lookups never grow a table. Growing moves the elements: a pointer into a
// table is valid only until the next write that grows it.
#ifndef LEAP_SRC_CONTAINER_DENSE_INDEX_H_
#define LEAP_SRC_CONTAINER_DENSE_INDEX_H_

#include <cstddef>
#include <vector>

namespace leap {

// Element `index`, growing `table` with `absent` fill to make it exist.
template <typename T>
T& GrowToFit(std::vector<T>& table, size_t index, const T& absent) {
  if (index >= table.size()) {
    table.resize(index + 1, absent);
  }
  return table[index];
}

// Element `index`, or `absent` when it lies past the end of `table`.
template <typename T>
T ReadOr(const std::vector<T>& table, size_t index, const T& absent) {
  return index < table.size() ? table[index] : absent;
}

}  // namespace leap

#endif  // LEAP_SRC_CONTAINER_DENSE_INDEX_H_
