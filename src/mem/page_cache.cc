#include "src/mem/page_cache.h"

namespace leap {

bool PageCache::Insert(SwapSlot slot, const CacheEntry& entry) {
  uint32_t& pos = GrowToFit(index_, slot, kNilIndex);
  if (pos != kNilIndex) {
    return false;
  }
  if (free_.empty()) {
    pos = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
  } else {
    pos = free_.back();
    free_.pop_back();
  }
  nodes_[pos].entry = entry;
  nodes_[pos].slot = slot;
  lru_.PushFront(nodes_, pos);
  return true;
}

std::optional<CacheEntry> PageCache::Remove(SwapSlot slot) {
  const uint32_t pos = PositionOf(slot);
  if (pos == kNilIndex) {
    return std::nullopt;
  }
  index_[slot] = kNilIndex;
  lru_.Remove(nodes_, pos);
  fifo_.Remove(nodes_, pos);
  stale_.Remove(nodes_, pos);
  free_.push_back(pos);
  return nodes_[pos].entry;
}

void PageCache::RemovePrefetch(SwapSlot slot) {
  const uint32_t pos = PositionOf(slot);
  if (pos != kNilIndex) {
    fifo_.Remove(nodes_, pos);
  }
}

}  // namespace leap
