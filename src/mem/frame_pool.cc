#include "src/mem/frame_pool.h"

namespace leap {

FramePool::FramePool(size_t capacity)
    : capacity_(capacity), allocated_(capacity, false) {}

bool FramePool::IsAllocated(Pfn pfn) const {
  return pfn < capacity_ && allocated_[pfn];
}

}  // namespace leap
