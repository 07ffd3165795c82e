#include "src/paging/swap_manager.h"

#include <cassert>

#include "src/container/dense_index.h"

namespace leap {

SwapSlot SwapManager::SlotFor(Pid pid, Vpn vpn) {
  assert(pid != 0 && "pid 0 marks a released slot");
  std::vector<SwapSlot>& slots = GrowToFit(forward_, pid, {});
  SwapSlot& slot = GrowToFit(slots, vpn, kInvalidSlot);
  if (slot != kInvalidSlot) {
    return slot;
  }
  slot = reverse_.size();
  reverse_.push_back(PidVpn{pid, vpn});
  ++GrowToFit(per_pid_slots_, pid, size_t{0});
  ++live_slots_;
  return slot;
}

size_t SwapManager::SlotsOf(Pid pid) const {
  return ReadOr(per_pid_slots_, pid, size_t{0});
}

void SwapManager::ReleaseSlot(Pid pid, Vpn vpn) {
  const std::optional<SwapSlot> slot = FindSlot(pid, vpn);
  if (!slot.has_value()) {
    return;
  }
  forward_[pid][vpn] = kInvalidSlot;
  reverse_[*slot] = PidVpn{0, 0};
  --per_pid_slots_[pid];
  --live_slots_;
}

std::optional<SwapSlot> SwapManager::FindSlot(Pid pid, Vpn vpn) const {
  if (pid >= forward_.size()) {
    return std::nullopt;
  }
  const SwapSlot slot = ReadOr(forward_[pid], vpn, kInvalidSlot);
  if (slot == kInvalidSlot) {
    return std::nullopt;
  }
  return slot;
}

std::optional<PidVpn> SwapManager::OwnerOf(SwapSlot slot) const {
  if (slot >= reverse_.size() || reverse_[slot].pid == 0) {
    return std::nullopt;
  }
  return reverse_[slot];
}

}  // namespace leap
