#include "src/prefetch/profile_guided.h"

#include <algorithm>

namespace leap {
namespace {

// Live-run guard: once a region has this many issued prefetches, it is
// suppressed if fewer than kSuppressAccuracyPct of them hit.
constexpr uint32_t kMinIssuedBeforeCheck = 16;
constexpr uint32_t kSuppressAccuracyPct = 25;
// Stop prefetching while the fabric data-path queue delay exceeds this.
constexpr SimTimeNs kCongestionBackoffNs = 200'000;

}  // namespace

ProfileGuidedPolicy::ProfileGuidedPolicy(ProfileGuidedConfig config)
    : config_(std::move(config)) {
  scores_.Reserve(config_.profile.hints.size());
}

CandidateVec ProfileGuidedPolicy::OnFault(const FaultContext& ctx) {
  CandidateVec out;
  if (config_.profile.empty() || ctx.slot == kInvalidSlot) return out;
  if (ctx.congestion.DataQueueDelayNs() > kCongestionBackoffNs) {
    return out;
  }
  const ProfileHint* hint = config_.profile.FindRegion(RegionOf(ctx.slot));
  if (hint == nullptr) return out;
  RegionScore* score = scores_.Find(hint->region);
  if (score != nullptr && score->suppressed) return out;

  const size_t depth = std::min(
      {size_t{hint->depth}, kMaxPrefetchCandidates, ctx.budget_remaining});
  SwapSlot next = ctx.slot;
  for (size_t i = 0; i < depth; ++i) {
    next = static_cast<SwapSlot>(next + hint->stride);
    if (next == ctx.slot || next == kInvalidSlot) break;
    out.push_back(next);
  }
  return out;
}

void ProfileGuidedPolicy::OnPrefetchIssued(Pid, SwapSlot slot, SimTimeNs) {
  ++scores_[RegionOf(slot)].issued;
}

void ProfileGuidedPolicy::OnPrefetchHit(Pid, SwapSlot slot, SimTimeNs) {
  ++scores_[RegionOf(slot)].hits;
}

void ProfileGuidedPolicy::OnPrefetchDropped(Pid, SwapSlot slot) {
  RegionScore& score = scores_[RegionOf(slot)];
  if (score.suppressed || score.issued < kMinIssuedBeforeCheck) {
    return;
  }
  // One-way gate: a region that proves inaccurate in this run stays off.
  if (100 * score.hits < kSuppressAccuracyPct * score.issued) {
    score.suppressed = true;
    ++suppressed_regions_;
  }
}

}  // namespace leap
