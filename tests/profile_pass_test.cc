// Offline profile pass: determinism, serialization round-trip, hint
// extraction on synthetic traces, and the empty-profile == NonePrefetcher
// equivalence through a full Machine run. Also pins the live-run gates of
// the profile-guided policy (accuracy suppression, congestion back-off) and
// the online-delta policy's congestion back-off.
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "src/prefetch/online_delta.h"
#include "src/prefetch/profile_guided.h"
#include "src/prefetch/profile_pass.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

// Synthetic trace: `count` consecutive faults striding by `stride` from
// `start`, one record per fault.
void AppendStrided(FaultTrace& trace, Pid pid, SwapSlot start,
                   PageDelta stride, size_t count) {
  SwapSlot slot = start;
  for (size_t i = 0; i < count; ++i) {
    trace.push_back(FaultRecord{pid, slot, SimTimeNs(1000 * i), false});
    slot = static_cast<SwapSlot>(slot + stride);
  }
}

TEST(ProfilePass, ExtractsDominantStridePerRegion) {
  FaultTrace trace;
  // Region 0 (slots 0..255): stride 3. Region 4 (slots 1024..): stride 7.
  AppendStrided(trace, 1, 0, 3, 60);
  AppendStrided(trace, 1, 1024, 7, 30);
  PrefetchProfile profile = BuildProfile(trace);

  ASSERT_EQ(profile.hints.size(), 2u);
  EXPECT_EQ(profile.hints[0].region, 0u);
  EXPECT_EQ(profile.hints[0].stride, 3);
  EXPECT_EQ(profile.hints[1].region, 4u);
  EXPECT_EQ(profile.hints[1].stride, 7);
  for (const ProfileHint& h : profile.hints) {
    EXPECT_GE(h.share_pct, 55u);
    EXPECT_GE(h.depth, 1u);
  }
  EXPECT_NE(profile.FindRegion(0), nullptr);
  EXPECT_NE(profile.FindRegion(4), nullptr);
  EXPECT_EQ(profile.FindRegion(2), nullptr);
}

TEST(ProfilePass, StrideMultiplesExtendTheDominantStride) {
  // A stride-10 loop whose trace skips resident pages shows deltas of 10,
  // 20, 30; all must count toward the stride-10 share.
  FaultTrace trace;
  SwapSlot slot = 0;
  const PageDelta seq[] = {10, 10, 20, 10, 30, 10, 20, 10, 10, 20};
  for (int rep = 0; rep < 4; ++rep) {
    for (PageDelta d : seq) {
      trace.push_back(FaultRecord{1, slot, 0, false});
      slot = static_cast<SwapSlot>(slot + d);
    }
  }
  PrefetchProfile profile = BuildProfile(trace);
  ASSERT_FALSE(profile.empty());
  EXPECT_EQ(profile.hints[0].stride, 10);
  EXPECT_GE(profile.hints[0].share_pct, 90u);
}

TEST(ProfilePass, IrregularRegionsAndThinSamplesYieldNoHint) {
  FaultTrace trace;
  // Scrambled region: no delta clears the share gate.
  const PageDelta scrambled[] = {17, -5, 40, 3, -29, 11, 52, -7,
                                 23, -41, 9, 35, -13, 61, 5, -19};
  SwapSlot slot = 128;
  for (int rep = 0; rep < 4; ++rep) {
    for (PageDelta d : scrambled) {
      trace.push_back(FaultRecord{1, slot, 0, false});
      slot = static_cast<SwapSlot>((slot + d) % 256);
    }
  }
  // Thin region: a perfect stride but below min_samples.
  AppendStrided(trace, 2, 4096, 2, 4);
  PrefetchProfile profile = BuildProfile(trace);
  EXPECT_TRUE(profile.empty());
}

TEST(ProfilePass, PerPidHistoriesDoNotCrossPollinate) {
  // Two tenants interleaved 1:1 in the same region, each striding by 4
  // from different bases. A shared history would see garbage deltas; the
  // per-pid pass must still find stride 4.
  FaultTrace trace;
  SwapSlot a = 0;
  SwapSlot b = 128;
  for (int i = 0; i < 40; ++i) {
    trace.push_back(FaultRecord{1, a, 0, false});
    trace.push_back(FaultRecord{2, b, 0, false});
    a += 4;
    b += 4;
  }
  PrefetchProfile profile = BuildProfile(trace);
  ASSERT_FALSE(profile.empty());
  for (const ProfileHint& h : profile.hints) {
    EXPECT_EQ(h.stride, 4);
  }
}

TEST(ProfilePass, BuildIsDeterministic) {
  FaultTrace trace;
  AppendStrided(trace, 1, 0, 3, 100);
  AppendStrided(trace, 2, 512, -2, 50);
  AppendStrided(trace, 1, 2048, 10, 80);
  const PrefetchProfile first = BuildProfile(trace);
  const PrefetchProfile second = BuildProfile(trace);
  EXPECT_TRUE(first == second);
  ASSERT_FALSE(first.empty());
}

TEST(ProfilePass, SerializeParseRoundTrip) {
  FaultTrace trace;
  AppendStrided(trace, 1, 0, 3, 100);
  AppendStrided(trace, 1, 1024, 7, 60);
  const PrefetchProfile profile = BuildProfile(trace);
  ASSERT_FALSE(profile.empty());

  const std::string text = profile.Serialize();
  const auto parsed = PrefetchProfile::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(profile == *parsed);
}

TEST(ProfilePass, ParseRejectsMalformedInput) {
  EXPECT_FALSE(PrefetchProfile::Parse("").has_value());
  EXPECT_FALSE(PrefetchProfile::Parse("not-a-profile\n").has_value());
  EXPECT_FALSE(
      PrefetchProfile::Parse("leap-prefetch-profile v1\n").has_value());
  EXPECT_FALSE(PrefetchProfile::Parse(
                   "leap-prefetch-profile v1\nregion_shift 99\n")
                   .has_value());
  // Zero stride.
  EXPECT_FALSE(PrefetchProfile::Parse(
                   "leap-prefetch-profile v1\nregion_shift 8\n1 0 2 80\n")
                   .has_value());
  // Unsorted regions.
  EXPECT_FALSE(PrefetchProfile::Parse("leap-prefetch-profile v1\n"
                                      "region_shift 8\n5 1 2 80\n3 1 2 80\n")
                   .has_value());
  // Share above 100.
  EXPECT_FALSE(PrefetchProfile::Parse(
                   "leap-prefetch-profile v1\nregion_shift 8\n1 2 2 101\n")
                   .has_value());
  // A valid minimal profile does parse.
  EXPECT_TRUE(PrefetchProfile::Parse(
                  "leap-prefetch-profile v1\nregion_shift 8\n1 2 2 80\n")
                  .has_value());
}

// An empty profile must make the policy a no-op: bit-identical machine
// behaviour to the none prefetcher under the same seed.
TEST(ProfileGuided, EmptyProfileMatchesNonePrefetcher) {
  auto run = [](PrefetchKind kind) {
    MachineConfig config = DefaultVmmConfig(kind, 1 << 14, 42);
    Machine machine(config);
    const Pid pid = machine.CreateProcess(2048);
    const SimTimeNs warm_end = WarmUp(machine, pid, 4096);
    RunConfig rc;
    rc.total_accesses = 20000;
    rc.start_time_ns = warm_end + 10 * kNsPerMs;
    StrideStream stream(4096, 10, 750);
    const RunResult rr = RunApp(machine, pid, stream, rc);
    return std::pair{rr.completion_ns, machine.counters().values()};
  };
  const auto none = run(PrefetchKind::kNone);
  const auto guided = run(PrefetchKind::kProfileGuided);
  EXPECT_EQ(none.first, guided.first);
  EXPECT_EQ(none.second, guided.second);
}

// One stride-1, depth-4 hint for each of regions 0 and 1 (slots 0..255
// and 256..511).
ProfileGuidedConfig TwoRegionConfig() {
  ProfileGuidedConfig config;
  config.profile.hints = {ProfileHint{0, 1, 4, 100},
                          ProfileHint{1, 1, 4, 100}};
  return config;
}

// Issues `issued` prefetches into the region starting at `base`, the
// first `hits` of which hit.
void Feed(ProfileGuidedPolicy& p, SwapSlot base, uint32_t issued,
          uint32_t hits) {
  for (uint32_t i = 0; i < issued; ++i) {
    p.OnPrefetchIssued(1, base + i, 0);
  }
  for (uint32_t i = 0; i < hits; ++i) {
    p.OnPrefetchHit(1, base + i, 0);
  }
}

TEST(ProfileGuided, InaccurateRegionStaysLiveThrough15Issued) {
  ProfileGuidedPolicy p(TwoRegionConfig());
  Feed(p, 0, 15, 0);
  p.OnPrefetchDropped(1, 14);
  EXPECT_EQ(p.suppressed_regions(), 0u);
  EXPECT_EQ(p.OnFault({1, 10}).size(), 4u);
}

TEST(ProfileGuided, InaccurateRegionSuppressedAt16Issued) {
  ProfileGuidedPolicy p(TwoRegionConfig());
  Feed(p, 0, 16, 3);  // 3/16 < 25%
  p.OnPrefetchDropped(1, 15);
  EXPECT_EQ(p.suppressed_regions(), 1u);
  EXPECT_TRUE(p.OnFault({1, 10}).empty());
  // The gate is per region: region 1 keeps its hint.
  EXPECT_EQ(p.OnFault({1, 300}).size(), 4u);
}

TEST(ProfileGuided, RegionAtQuarterAccuracyStaysLive) {
  ProfileGuidedPolicy p(TwoRegionConfig());
  Feed(p, 256, 16, 4);  // exactly 25%
  p.OnPrefetchDropped(1, 271);
  EXPECT_EQ(p.suppressed_regions(), 0u);
  EXPECT_EQ(p.OnFault({1, 300}).size(), 4u);
}

// A fault context whose data-path queue delay is `delay_ns`.
FaultContext CongestedFault(SwapSlot slot, double delay_ns) {
  FaultContext ctx(1, slot);
  ctx.congestion.demand_queue_delay_ewma_ns = delay_ns;
  return ctx;
}

TEST(ProfileGuided, BacksOffAbove200usDataQueueDelay) {
  ProfileGuidedPolicy p(TwoRegionConfig());
  EXPECT_EQ(p.OnFault(CongestedFault(10, 200'000.0)).size(), 4u);
  EXPECT_TRUE(p.OnFault(CongestedFault(10, 200'001.0)).empty());
}

TEST(OnlineDelta, BacksOffAbove200usDataQueueDelay) {
  // A fresh policy probes its proximity arms on the first fault, so it
  // emits without any training - unless the data path is congested.
  OnlineDeltaPolicy calm;
  EXPECT_FALSE(calm.OnFault(CongestedFault(100, 200'000.0)).empty());
  OnlineDeltaPolicy congested;
  EXPECT_TRUE(congested.OnFault(CongestedFault(100, 200'001.0)).empty());
}

}  // namespace
}  // namespace leap
