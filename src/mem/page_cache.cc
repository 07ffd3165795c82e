#include "src/mem/page_cache.h"

#include "src/container/dense_index.h"

namespace leap {

uint32_t PageCache::PositionOf(SwapSlot slot) const {
  return ReadOr(index_, slot, kNone);
}

bool PageCache::Insert(SwapSlot slot, const CacheEntry& entry) {
  uint32_t& pos = GrowToFit(index_, slot, kNone);
  if (pos != kNone) {
    return false;
  }
  if (free_.empty()) {
    pos = static_cast<uint32_t>(slab_.size());
    slab_.push_back(entry);
  } else {
    pos = free_.back();
    free_.pop_back();
    slab_[pos] = entry;
  }
  lru_.Touch(slot);
  return true;
}

CacheEntry* PageCache::Lookup(SwapSlot slot) {
  const uint32_t pos = PositionOf(slot);
  return pos == kNone ? nullptr : &slab_[pos];
}

const CacheEntry* PageCache::Lookup(SwapSlot slot) const {
  const uint32_t pos = PositionOf(slot);
  return pos == kNone ? nullptr : &slab_[pos];
}

std::optional<CacheEntry> PageCache::Remove(SwapSlot slot) {
  const uint32_t pos = PositionOf(slot);
  if (pos == kNone) {
    return std::nullopt;
  }
  index_[slot] = kNone;
  free_.push_back(pos);
  lru_.Remove(slot);
  return slab_[pos];
}

}  // namespace leap
