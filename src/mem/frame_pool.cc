#include "src/mem/frame_pool.h"

namespace leap {

FramePool::FramePool(size_t capacity)
    : capacity_(capacity), allocated_(capacity, false) {}

std::optional<Pfn> FramePool::Allocate() {
  Pfn pfn;
  if (!recycled_.empty()) {
    pfn = recycled_.back();
    recycled_.pop_back();
  } else if (next_fresh_ < capacity_) {
    // Low pfns come out first; keeps traces readable.
    pfn = static_cast<Pfn>(next_fresh_++);
  } else {
    return std::nullopt;
  }
  allocated_[pfn] = true;
  return pfn;
}

void FramePool::Free(Pfn pfn) {
  if (pfn >= capacity_ || !allocated_[pfn]) {
    return;
  }
  allocated_[pfn] = false;
  recycled_.push_back(pfn);
}

bool FramePool::IsAllocated(Pfn pfn) const {
  return pfn < capacity_ && allocated_[pfn];
}

}  // namespace leap
