// GHB-style delta-correlation prefetcher (Nesbit & Smith, "Data Cache
// Prefetching Using a Global History Buffer").
//
// Keeps a global circular buffer of recent fault deltas plus an index from
// delta-pair signatures to the positions where they occurred. On a fault it
// looks up the last two deltas and replays the deltas that historically
// followed that pair. Table 1 of the paper lists GHB as accurate but
// heavier than Leap: state is O(buffer + index) per device (vs Leap's O(1)
// per process) and every fault does correlation lookups. Implemented as a
// baseline so the Table 1 bench can measure that overhead gap directly.
#ifndef LEAP_SRC_PREFETCH_GHB_H_
#define LEAP_SRC_PREFETCH_GHB_H_

#include <cstdint>
#include <vector>

#include "src/container/flat_map.h"
#include "src/prefetch/prefetcher.h"

namespace leap {

struct GhbConfig {
  size_t buffer_size = 256;  // global history entries
};

class GhbPrefetcher : public PrefetchPolicy {
 public:
  explicit GhbPrefetcher(const GhbConfig& config = GhbConfig());

  CandidateVec OnFault(const FaultContext& ctx) override;
  std::string_view name() const override { return "ghb"; }

  size_t buffer_entries() const { return buffer_.size(); }

 private:
  struct Entry {
    PageDelta delta = 0;
    // Previous buffer position with the same signature (link list).
    size_t prev = kNoLink;
  };
  static constexpr size_t kNoLink = static_cast<size_t>(-1);

  static uint64_t Signature(PageDelta a, PageDelta b) {
    return static_cast<uint64_t>(a) * 1000003ULL ^ static_cast<uint64_t>(b);
  }

  GhbConfig config_;
  std::vector<Entry> buffer_;  // circular
  size_t head_ = 0;
  bool full_ = false;
  FlatMap<uint64_t, size_t> index_;  // signature -> newest pos
  FlatMap<Pid, SwapSlot> last_addr_;
  FlatMap<Pid, PageDelta> last_delta_;
};

}  // namespace leap

#endif  // LEAP_SRC_PREFETCH_GHB_H_
