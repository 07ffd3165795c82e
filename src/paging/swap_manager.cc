#include "src/paging/swap_manager.h"

namespace leap {

SwapSlot SwapManager::SlotFor(Pid pid, Vpn vpn) {
  const uint64_t key = Key(pid, vpn);
  if (const SwapSlot* existing = forward_.Find(key)) {
    return *existing;
  }
  const SwapSlot slot = next_slot_++;
  forward_[key] = slot;
  reverse_[slot] = PidVpn{pid, vpn};
  ++per_pid_slots_[pid];
  return slot;
}

size_t SwapManager::SlotsOf(Pid pid) const {
  const uint64_t* count = per_pid_slots_.Find(pid);
  return count == nullptr ? 0 : static_cast<size_t>(*count);
}

void SwapManager::ReleaseSlot(Pid pid, Vpn vpn) {
  const std::optional<SwapSlot> slot = forward_.Take(Key(pid, vpn));
  if (!slot.has_value()) {
    return;
  }
  reverse_.Erase(*slot);
  if (uint64_t* count = per_pid_slots_.Find(pid)) {
    if (*count > 0) {
      --*count;
    }
  }
}

std::optional<SwapSlot> SwapManager::FindSlot(Pid pid, Vpn vpn) const {
  const SwapSlot* slot = forward_.Find(Key(pid, vpn));
  if (slot == nullptr) {
    return std::nullopt;
  }
  return *slot;
}

std::optional<PidVpn> SwapManager::OwnerOf(SwapSlot slot) const {
  const PidVpn* owner = reverse_.Find(slot);
  if (owner == nullptr) {
    return std::nullopt;
  }
  return *owner;
}

}  // namespace leap
