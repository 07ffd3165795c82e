// Profile-guided ("programmed") prefetcher, after 3PO: all pattern
// detection happens offline in the profile pass; at runtime this policy
// only replays the per-region stride/distance hints it was handed. The
// feedback path is used purely defensively - regions whose hints turn out
// inaccurate in the live run are suppressed, never re-tuned.
#ifndef LEAP_SRC_PREFETCH_PROFILE_GUIDED_H_
#define LEAP_SRC_PREFETCH_PROFILE_GUIDED_H_

#include <cstdint>

#include "src/container/flat_map.h"
#include "src/prefetch/prefetcher.h"
#include "src/prefetch/profile_pass.h"

namespace leap {

// The prefetch distance is each hint's own profiled depth; the live-run
// suppression gate and congestion back-off are constants in
// profile_guided.cc.
struct ProfileGuidedConfig {
  PrefetchProfile profile;
};

class ProfileGuidedPolicy : public PrefetchPolicy {
 public:
  explicit ProfileGuidedPolicy(ProfileGuidedConfig config);

  CandidateVec OnFault(const FaultContext& ctx) override;
  void OnPrefetchIssued(Pid pid, SwapSlot slot, SimTimeNs now) override;
  void OnPrefetchHit(Pid pid, SwapSlot slot, SimTimeNs timeliness) override;
  void OnPrefetchDropped(Pid pid, SwapSlot slot) override;
  std::string_view name() const override { return "profile-guided"; }

  size_t suppressed_regions() const { return suppressed_regions_; }

 private:
  // Live hit/issue accounting per region, keyed by the region of the
  // prefetched slot itself (so no per-slot outstanding map is needed).
  struct RegionScore {
    uint32_t issued = 0;
    uint32_t hits = 0;
    bool suppressed = false;
  };

  uint64_t RegionOf(SwapSlot slot) const {
    return slot >> config_.profile.region_shift;
  }

  ProfileGuidedConfig config_;
  FlatMap<uint64_t, RegionScore> scores_;
  size_t suppressed_regions_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_PREFETCH_PROFILE_GUIDED_H_
