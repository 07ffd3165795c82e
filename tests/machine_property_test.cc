// Property sweeps over the machine configuration matrix: for every
// (medium x path x prefetcher x eviction) combination the paging pipeline
// must preserve a set of structural invariants, regardless of workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>

#include "src/runtime/app_runner.h"
#include "src/prefetch/policy_registry.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/workload/app_models.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

using ConfigTuple = std::tuple<Medium, PathKind, PrefetchKind, EvictionKind>;

std::string TupleName(const ::testing::TestParamInfo<ConfigTuple>& info) {
  const auto [medium, path, prefetcher, eviction] = info.param;
  std::string name;
  name += medium == Medium::kHdd ? "Hdd" : medium == Medium::kSsd ? "Ssd"
                                                                  : "Remote";
  name += path == PathKind::kDefault ? "Default" : "Leap";
  switch (prefetcher) {
    case PrefetchKind::kNone: name += "None"; break;
    case PrefetchKind::kNextNLine: name += "NextN"; break;
    case PrefetchKind::kStride: name += "Stride"; break;
    case PrefetchKind::kReadAhead: name += "ReadAhead"; break;
    case PrefetchKind::kGhb: name += "Ghb"; break;
    case PrefetchKind::kLeap: name += "LeapPf"; break;
    case PrefetchKind::kOnlineDelta: name += "OnlineDelta"; break;
    case PrefetchKind::kProfileGuided: name += "ProfileGuided"; break;
  }
  name += eviction == EvictionKind::kLazyLru ? "Lazy" : "Eager";
  return name;
}

class MachineMatrixTest : public ::testing::TestWithParam<ConfigTuple> {
 protected:
  MachineConfig MakeConfig() const {
    const auto [medium, path, prefetcher, eviction] = GetParam();
    MachineConfig config;
    config.total_frames = 4096;
    config.medium = medium;
    config.path = path;
    config.prefetcher = prefetcher;
    config.eviction = eviction;
    config.seed = 1234;
    return config;
  }
};

TEST_P(MachineMatrixTest, AccountingInvariantsHoldUnderMixedWorkload) {
  Machine machine(MakeConfig());
  const Pid pid = machine.CreateProcess(512);
  auto stream = MakePowerGraph(2048, 5);
  Rng rng(5);
  SimTimeNs now = 0;
  for (int i = 0; i < 20000; ++i) {
    const MemOp op = stream->Next(rng);
    now += op.think_ns;
    const AccessResult r = machine.Access(pid, op.vpn, op.write, now);
    now += r.latency;
    // Frame conservation: every frame is free, held by a cache entry, or
    // mapped. Stale (consumed lazy) entries are the only frameless ones.
    ASSERT_EQ(machine.free_frames() + machine.cache_size() -
                  machine.stale_entries() + machine.resident_pages(pid),
              machine.config().total_frames)
        << "after access " << i;
  }
  const Counters& c = machine.counters();
  // Structural identities of the paging pipeline:
  // every page fault is a minor fault, a cache hit, or a cache miss.
  EXPECT_EQ(c.Get(counter::kPageFaults),
            c.Get(counter::kCacheHits) + c.Get(counter::kCacheMisses) +
                (c.Get(counter::kPageFaults) - c.Get(counter::kCacheHits) -
                 c.Get(counter::kCacheMisses)));
  // Demand reads match cache misses.
  EXPECT_EQ(c.Get(counter::kDemandReads), c.Get(counter::kCacheMisses));
  // Prefetch hits never exceed prefetch issues.
  EXPECT_LE(c.Get(counter::kPrefetchHits), c.Get(counter::kPrefetchIssued));
  // Cache adds = demand reads + prefetch issues... prefetch frame-alloc
  // failures can only lower the entry count, never raise it.
  EXPECT_LE(c.Get(counter::kPrefetchIssued) + c.Get(counter::kDemandReads),
            c.Get(counter::kCacheAdds) + 64);
  // The resident set respects the cgroup (within transient slack).
  EXPECT_LE(machine.resident_pages(pid), 512u + 64u);
}

TEST_P(MachineMatrixTest, DeterministicReplay) {
  auto run_once = [&] {
    Machine machine(MakeConfig());
    const Pid pid = machine.CreateProcess(512);
    auto stream = MakeVoltDb(2048, 9);
    Rng rng(9);
    SimTimeNs now = 0;
    for (int i = 0; i < 8000; ++i) {
      const MemOp op = stream->Next(rng);
      now += op.think_ns;
      now += machine.Access(pid, op.vpn, op.write, now).latency;
    }
    return std::make_pair(now, machine.counters().Get(counter::kCacheHits));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST_P(MachineMatrixTest, EagerModeNeverAccumulatesStaleEntries) {
  const auto [medium, path, prefetcher, eviction] = GetParam();
  if (eviction != EvictionKind::kEagerLeap) {
    GTEST_SKIP() << "lazy mode accumulates by design";
  }
  Machine machine(MakeConfig());
  const Pid pid = machine.CreateProcess(256);
  SequentialStream stream(1024, 500);
  Rng rng(2);
  SimTimeNs now = 0;
  for (int i = 0; i < 10000; ++i) {
    const MemOp op = stream.Next(rng);
    now += op.think_ns;
    now += machine.Access(pid, op.vpn, op.write, now).latency;
    ASSERT_EQ(machine.stale_entries(), 0u);
  }
}

// The stale list holds cache entries only, and each kswapd tick's first
// pass retires min(stale, batch) of it: a tick that starts at or under the
// batch drains it to 0. A small batch makes ticks both under and over it
// common. The test owns the event queue so it can look right after each
// tick.
TEST_P(MachineMatrixTest, KswapdDrainsStaleEntriesThatFitTheBatch) {
  constexpr size_t kBatch = 8;
  MachineConfig config = MakeConfig();
  config.kswapd_scan_batch = kBatch;
  EventQueue events;
  MachineEnv env;
  env.shared_events = &events;
  Machine machine(config, env);
  // On a shared queue the queue's owner drives kswapd: one tick every
  // period, as the machine would schedule on a queue of its own.
  std::function<void(SimTimeNs)> kswapd = [&](SimTimeNs when) {
    machine.KswapdTick(when);
    events.ScheduleAt(when + config.kswapd_period_ns, kswapd);
  };
  events.ScheduleAt(config.kswapd_period_ns, kswapd);
  const Pid pid = machine.CreateProcess(512);
  auto stream = MakeVoltDb(2048, 3);
  Rng rng(3);
  SimTimeNs now = 0;
  size_t busy_ticks = 0;
  for (int i = 0; i < 20000; ++i) {
    const MemOp op = stream->Next(rng);
    now += op.think_ns;
    while (events.NextEventTime() <= now) {
      const size_t before = machine.stale_entries();
      events.RunUntil(events.NextEventTime());
      ASSERT_EQ(machine.stale_entries(), before - std::min(before, kBatch))
          << "tick began with " << before;
      busy_ticks += before > 0;
    }
    now += machine.Access(pid, op.vpn, op.write, now).latency;
    ASSERT_LE(machine.stale_entries(), machine.cache_size());
  }
  const auto [medium, path, prefetcher, eviction] = GetParam();
  if (eviction == EvictionKind::kLazyLru) {
    EXPECT_GT(busy_ticks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, MachineMatrixTest,
    ::testing::Combine(
        ::testing::Values(Medium::kHdd, Medium::kSsd, Medium::kRemote),
        ::testing::Values(PathKind::kDefault, PathKind::kLeap),
        ::testing::ValuesIn(kAllPrefetchKinds),
        ::testing::Values(EvictionKind::kLazyLru, EvictionKind::kEagerLeap)),
    TupleName);

// --- VFS page cache under DRAM pressure --------------------------------------
//
// A VFS page-cache entry keeps its frame after its first hit, so with the
// cache bounded only by DRAM (limit 0) or by a limit above DRAM, reclaim
// must free consumed pages too, and write back the dirty ones. Uniform
// accesses over 8x DRAM with 20% writes keep DRAM full the whole run.

struct VfsCase {
  const char* name;
  bool leap;
  size_t cache_limit_pages;
};

class VfsPressureTest : public ::testing::TestWithParam<VfsCase> {};

TEST_P(VfsPressureTest, FramesAreConservedAndDirtyPagesWrittenBack) {
  constexpr size_t kFrames = 1024;
  const VfsCase& c = GetParam();
  const MachineConfig config =
      c.leap ? LeapVfsConfig(kFrames, c.cache_limit_pages, 7)
             : DefaultVfsConfig(PrefetchKind::kReadAhead, kFrames,
                                c.cache_limit_pages, 7);
  Machine machine(config);
  const Pid pid = machine.CreateProcess(0);
  Rng rng(7);
  SimTimeNs now = 0;
  for (int i = 0; i < 50000; ++i) {
    now += 1000;
    const Vpn vpn = rng.NextU64(8 * kFrames);
    const bool write = rng.NextU64(5) == 0;
    now += machine.Access(pid, vpn, write, now).latency;
    ASSERT_EQ(machine.free_frames() + machine.cache_size() -
                  machine.stale_entries() + machine.resident_pages(pid),
              kFrames)
        << "after access " << i;
  }
  EXPECT_GT(machine.counters().Get(counter::kWritebacks), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, VfsPressureTest,
    ::testing::Values(VfsCase{"LeapUnlimited", true, 0},
                      VfsCase{"LeapAboveDram", true, 2048},
                      VfsCase{"ReadAheadUnlimited", false, 0},
                      VfsCase{"ReadAheadAboveDram", false, 2048}),
    [](const ::testing::TestParamInfo<VfsCase>& info) {
      return std::string(info.param.name);
    });

// --- Leap parameter sweeps ---------------------------------------------------

class LeapParamSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(LeapParamSweepTest, PrefetcherSafeAcrossParameterSpace) {
  const auto [hsize, nsplit, pw_max] = GetParam();
  LeapParams params;
  params.history_size = hsize;
  params.nsplit = nsplit;
  params.max_prefetch_window = pw_max;
  LeapPrefetcher prefetcher(params);
  Rng rng(hsize * 131 + nsplit * 17 + pw_max);
  // Mixed stream: random jumps, runs, strides.
  SwapSlot cursor = 1 << 20;
  for (int i = 0; i < 3000; ++i) {
    switch (rng.NextU64(3)) {
      case 0: cursor += 1; break;
      case 1: cursor += 7; break;
      default: cursor = rng.NextU64(1 << 22); break;
    }
    const PrefetchDecision d = prefetcher.OnMiss(cursor);
    ASSERT_LE(d.window_size, std::max<size_t>(1, pw_max));
    ASSERT_LE(d.pages.size(), d.window_size);
    for (SwapSlot page : d.pages) {
      ASSERT_NE(page, cursor);
    }
    for (size_t h = 0; h < d.pages.size() && h < 2; ++h) {
      prefetcher.OnPrefetchHit(d.pages[h]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamSpace, LeapParamSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 8, 32, 256),
                       ::testing::Values(1, 2, 4, 64),
                       ::testing::Values(1, 8, 64)));

}  // namespace
}  // namespace leap
