// Offline profile pass (3PO-style "programmed prefetching"): scan a
// recorded fault trace once, compute per-region stride/distance hints, and
// hand them to ProfileGuidedPolicy for replay at runtime.
//
// The pass is deliberately offline and deterministic: profile(trace) is a
// pure function, hints round-trip through a text serialization (so a
// profile can be checked in next to the trace that produced it), and the
// runtime policy consuming the hints does no pattern detection of its own.
#ifndef LEAP_SRC_PREFETCH_PROFILE_PASS_H_
#define LEAP_SRC_PREFETCH_PROFILE_PASS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/types.h"

namespace leap {

// One policy-visible paging event, recorded by the Machine's fault-trace
// hook (Machine::SetFaultTraceSink): every cache miss and every cache hit
// on the remote-access path, in access order. This is the profile pass's
// input - the same per-process offset stream the online policies see.
struct FaultRecord {
  Pid pid = 0;
  SwapSlot slot = kInvalidSlot;
  SimTimeNs now = 0;
  // True when the access was served from the page cache (the do_swap_page
  // hits Leap's tracker also sees); false for misses.
  bool hit = false;
};

using FaultTrace = std::vector<FaultRecord>;

// Per-region prefetch hint: within region (slot >> region_shift), accesses
// advance by `stride` pages, and fetching `depth` pages ahead was safe in
// the profiled run.
struct ProfileHint {
  uint64_t region = 0;
  PageDelta stride = 0;
  // Prefetch distance: candidates emitted per fault along the stride.
  uint32_t depth = 1;
  // Share of the region's observed deltas that matched `stride` (0-100);
  // kept for introspection and serialized with the hint.
  uint32_t share_pct = 0;

  bool operator==(const ProfileHint&) const = default;
};

// The offline pass's output: sorted, region-unique hints.
struct PrefetchProfile {
  size_t region_shift = 8;
  std::vector<ProfileHint> hints;  // sorted by region, unique

  bool empty() const { return hints.empty(); }
  // Binary search; nullptr when the region has no hint.
  const ProfileHint* FindRegion(uint64_t region) const;

  // Text round-trip: Parse(Serialize(p)) == p (pinned by
  // profile_pass_test).
  std::string Serialize() const;
  static std::optional<PrefetchProfile> Parse(const std::string& text);

  bool operator==(const PrefetchProfile&) const = default;
};

struct ProfilePassConfig {
  // Pages per region = 1 << region_shift.
  size_t region_shift = 8;
  // Regions with fewer observed deltas than this emit no hint.
  size_t min_samples = 8;
  // Depth cap; the computed distance (mean dominant-delta run length) is
  // clamped to [1, max_depth].
  uint32_t max_depth = 8;
};

// Pure function of (trace, config): groups per-process access deltas by
// the region they were observed in, finds each region's dominant delta,
// and emits a hint when it clears the share gate. Distance = mean length
// of consecutive dominant-delta runs, clamped to [1, max_depth].
PrefetchProfile BuildProfile(const FaultTrace& trace,
                             const ProfilePassConfig& config = {});

}  // namespace leap

#endif  // LEAP_SRC_PREFETCH_PROFILE_PASS_H_
