// Swap-slot allocation: one shared swap area, slots handed out in order.
//
// Slots come from one global bump counter, so pages evicted together land
// on contiguous offsets whichever process owns them. Because every process
// shares the swap space, interleaved evictions from different processes
// interleave their slots - the exact property that confuses sequence-based
// prefetchers (paper section 2.3) and that Leap's per-process histories
// tolerate.
//
// The swap manager keeps per-slot state only: the reverse owner of each
// slot below high_water() (pid 0 once released; pids start at 1) in a
// direct-indexed vector (src/container/dense_index.h), 8 bytes a slot,
// and live counts per pid. An owner's vpn is stored in 32 bits: every
// vpn is below kMaxVpn = 2^25 (src/runtime/machine.h). The forward
// direction - a page's slot - lives in the page's record
// (src/mem/page_table.h), the way the kernel keeps the swap entry in the
// PTE: the caller allocates on a page's first swap-out, keeps the slot in
// the record for life and releases it when the page is re-dirtied. No
// lookup hands out a pointer.
#ifndef LEAP_SRC_PAGING_SWAP_MANAGER_H_
#define LEAP_SRC_PAGING_SWAP_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/types.h"

namespace leap {

// Owner of a swap slot: the process page it backs.
struct PidVpn {
  Pid pid;
  uint32_t vpn;
  bool operator==(const PidVpn&) const = default;
};
static_assert(sizeof(PidVpn) == 8);

class SwapManager {
 public:
  // Hands (pid, vpn) the next fresh slot. `pid` must be non-zero and `vpn`
  // must fit in 32 bits.
  SwapSlot Allocate(Pid pid, Vpn vpn);

  // Frees the slot (swap_free semantics): called when a swapped-in page is
  // re-dirtied, so its next eviction allocates a fresh slot. This is what
  // progressively scrambles the swap layout relative to the virtual layout
  // on write-heavy workloads. A released or never-allocated slot is a
  // no-op.
  void Release(SwapSlot slot);

  // Reverse mapping (used when a cached slot must be re-associated);
  // nullopt for a released slot and for one at or above high_water().
  std::optional<PidVpn> OwnerOf(SwapSlot slot) const {
    if (slot >= reverse_.size() || reverse_[slot].pid == 0) {
      return std::nullopt;
    }
    return reverse_[slot];
  }

  // Live slots: handed out and not yet released (the budget governor's
  // footprint shares read this).
  size_t allocated_slots() const { return live_slots_; }
  // Per-tenant accounting: live swap slots held by `pid` - the tenant's
  // footprint on the backing medium (remote slabs in disaggregated runs).
  // Surfaced by the cluster stats so per-tenant pressure on the donor pool
  // is visible without walking the page records.
  size_t SlotsOf(Pid pid) const;
  // High-water mark of the swap area: one past the largest slot ever
  // handed out (released slots still lie below it).
  SwapSlot high_water() const { return reverse_.size(); }

 private:
  std::vector<PidVpn> reverse_;        // [slot]; pid 0 = released
  std::vector<size_t> per_pid_slots_;  // [pid]
  size_t live_slots_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_PAGING_SWAP_MANAGER_H_
