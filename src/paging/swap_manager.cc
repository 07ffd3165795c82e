#include "src/paging/swap_manager.h"

#include <cassert>

#include "src/container/dense_index.h"

namespace leap {

SwapSlot SwapManager::Allocate(Pid pid, Vpn vpn) {
  assert(pid != 0 && "pid 0 marks a released slot");
  assert(vpn <= UINT32_MAX && "owners store 32-bit vpns");
  const SwapSlot slot = reverse_.size();
  reverse_.push_back(PidVpn{pid, static_cast<uint32_t>(vpn)});
  ++GrowToFit(per_pid_slots_, pid, size_t{0});
  ++live_slots_;
  return slot;
}

size_t SwapManager::SlotsOf(Pid pid) const {
  return ReadOr(per_pid_slots_, pid, size_t{0});
}

void SwapManager::Release(SwapSlot slot) {
  const std::optional<PidVpn> owner = OwnerOf(slot);
  if (!owner.has_value()) {
    return;
  }
  reverse_[slot] = PidVpn{0, 0};
  --per_pid_slots_[owner->pid];
  --live_slots_;
}

}  // namespace leap
