// Fixed-capacity physical frame allocator standing in for local DRAM.
//
// Frames are opaque handles; the simulator tracks only occupancy, not data.
// Capacity bounds the machine's resident set the same way a host's DRAM
// (or a cgroup limit on it) bounds the real system's.
//
// Frames are handed out lazily: freed frames first, most recently freed
// first, then never-used frames in ascending pfn order from a bump counter.
// A host that touches a fraction of its DRAM never pays for a free list
// the size of all of it.
#ifndef LEAP_SRC_MEM_FRAME_POOL_H_
#define LEAP_SRC_MEM_FRAME_POOL_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/sim/types.h"

namespace leap {

class FramePool {
 public:
  explicit FramePool(size_t capacity);

  // Allocates a free frame; nullopt when the pool is exhausted (caller must
  // reclaim first).
  std::optional<Pfn> Allocate() {
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

  // Returns a frame to the pool. Double-free is a programming error and is
  // ignored defensively.
  void Free(Pfn pfn) {
    if (pfn >= capacity_ || !allocated_[pfn]) {
      return;
    }
    allocated_[pfn] = false;
    recycled_.push_back(pfn);
  }

  size_t capacity() const { return capacity_; }
  size_t free_count() const {
    return capacity_ - next_fresh_ + recycled_.size();
  }
  size_t used_count() const { return capacity_ - free_count(); }
  bool IsAllocated(Pfn pfn) const;

 private:
  size_t capacity_;
  size_t next_fresh_ = 0;      // pfns from here up were never handed out
  std::vector<Pfn> recycled_;  // freed frames, reused LIFO
  std::vector<bool> allocated_;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_FRAME_POOL_H_
