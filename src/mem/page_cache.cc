#include "src/mem/page_cache.h"

namespace leap {

bool PageCache::Insert(SwapSlot slot, const CacheEntry& entry) {
  const auto [value, inserted] = entries_.Emplace(slot, entry);
  if (inserted) {
    lru_.Touch(slot);
  }
  return inserted;
}

CacheEntry* PageCache::Lookup(SwapSlot slot) { return entries_.Find(slot); }

const CacheEntry* PageCache::Lookup(SwapSlot slot) const {
  return entries_.Find(slot);
}

std::optional<CacheEntry> PageCache::Remove(SwapSlot slot) {
  std::optional<CacheEntry> removed = entries_.Take(slot);
  if (removed.has_value()) {
    lru_.Remove(slot);
  }
  return removed;
}

}  // namespace leap
