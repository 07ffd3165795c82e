// Allocation discipline for the observability layer:
//
//  1. TraceRecorder::Record never allocates - not on the fill path, not on
//     wraparound - because the ring is pre-sized at construction.
//  2. A disabled recorder's Record is free of both storage and allocation.
//  3. The instrumented hot path stays allocation-free END TO END with an
//     enabled recorder attached: steady-state Machine::Access through the
//     block layer's kBlockAdmit spans and the prefetch lifecycle instants
//     performs zero heap allocations, same as the un-instrumented machine
//     (pinned by determinism_test). Observability must not reintroduce
//     what PR 1 removed from the hot path.
//  4. The per-access cluster work around it stays allocation-free too: a
//     HealthMonitor judging a demand read (median across 64 nodes) and a
//     tiered Machine whose migrator ticks fire between accesses.
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/cluster/health_monitor.h"
#include "src/obs/trace_recorder.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/workload/patterns.h"

// --- global allocation hook -------------------------------------------------
// Same pattern as determinism_test: each test binary gets its own override,
// so the two hooks never collide. Not atomic - the simulator is
// single-threaded and gtest does not allocate concurrently with the body.
namespace {
size_t g_alloc_count = 0;
}  // namespace

void* operator new(size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace leap {
namespace {

constexpr size_t kFrames = 1024;
constexpr size_t kFootprint = 3 * kFrames;  // force steady-state misses

TraceEvent Ev(SimTimeNs ts) {
  TraceEvent e;
  e.ts = ts;
  e.kind = TraceEventKind::kFabricOp;
  return e;
}

TEST(TraceAllocTest, EnabledRecordNeverAllocates) {
  TraceRecorder rec({/*enabled=*/true, /*capacity=*/256});
  const size_t before = g_alloc_count;
  // 4x capacity: covers both the fill phase and wraparound overwrites.
  for (SimTimeNs ts = 1; ts <= 1024; ++ts) {
    rec.Record(Ev(ts));
  }
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(rec.size(), 256u);
  EXPECT_EQ(rec.dropped(), 1024u - 256u);
}

TEST(TraceAllocTest, DisabledRecordNeverAllocatesAndStoresNothing) {
  TraceRecorder rec({/*enabled=*/false, /*capacity=*/256});
  const size_t before = g_alloc_count;
  for (SimTimeNs ts = 1; ts <= 1024; ++ts) {
    rec.Record(Ev(ts));
  }
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(rec.size(), 0u);
}

// Steady-state faults through an instrumented machine with tracing ON.
TEST(TraceAllocTest, SteadyStateAccessWithTraceAttachedDoesNotAllocate) {
  TraceRecorder rec({/*enabled=*/true, /*capacity=*/size_t{1} << 14});
  MachineEnv env;
  env.trace = &rec;
  Machine machine(LeapVmmConfig(kFrames, 42), env);
  const Pid pid = machine.CreateProcess(kFootprint / 2);
  SimTimeNs now = WarmUp(machine, pid, kFootprint) + 10 * kNsPerMs;

  // Reach steady state: several sweeps so every simulator container has
  // grown to working capacity (same recipe as determinism_test).
  SequentialStream stream(kFootprint, 750);
  Rng rng(7);
  for (size_t i = 0; i < 4 * kFootprint; ++i) {
    const MemOp op = stream.Next(rng);
    now += op.think_ns;
    now += machine.Access(pid, op.vpn, op.write, now).latency;
  }

  size_t allocs = 0;
  size_t misses = 0;
  for (size_t i = 0; i < 2 * kFootprint; ++i) {
    const MemOp op = stream.Next(rng);
    now += op.think_ns;
    const size_t before = g_alloc_count;
    const AccessResult result = machine.Access(pid, op.vpn, op.write, now);
    allocs += g_alloc_count - before;
    now += result.latency;
    misses += result.type == AccessType::kMiss ? 1 : 0;
  }

  ASSERT_GT(misses, 0u);           // the slow path actually ran
  ASSERT_GT(rec.recorded(), 0u);   // ...and it really recorded events
  EXPECT_EQ(allocs, 0u) << "tracing reintroduced hot-path allocation";
}

// Every judged sample of a node above the latency floor runs the median
// across nodes; the median's working copy is reused, not allocated.
TEST(ClusterAllocTest, HealthMonitorRecordReadDoesNotAllocate) {
  constexpr uint32_t kNodes = 64;
  HealthMonitorConfig config;
  HealthMonitor monitor(config, kNodes);
  // Every node at the same latency, well above the floor: each sample past
  // min_samples is judged against the median and none ever transitions.
  const SimTimeNs latency = 4 * config.floor_ns;
  SimTimeNs now = 0;
  for (uint64_t round = 0; round < config.min_samples; ++round) {
    for (uint32_t node = 0; node < kNodes; ++node) {
      monitor.RecordRead(node, latency, now += 100);
    }
  }

  const size_t before = g_alloc_count;
  for (uint64_t round = 0; round < 64; ++round) {
    for (uint32_t node = 0; node < kNodes; ++node) {
      monitor.RecordRead(node, latency + round % 7, now += 100);
    }
  }
  EXPECT_EQ(g_alloc_count - before, 0u) << "RecordRead allocated";
  EXPECT_EQ(monitor.transition_count(), 0u);
  EXPECT_EQ(monitor.State(0), NodeHealth::kHealthy);
}

// Steady-state faults on a tiered machine: the migrator's periodic ticks
// (LRU scans, victim and move planning, staggered copies) run inside
// Access through the shared event queue and must not allocate.
TEST(ClusterAllocTest, TieredMachineAccessWithMigratorTicksDoesNotAllocate) {
  // A 1024-page zipf footprint over a 512-page cgroup and a 256-page CXL
  // tier, so hot pages keep cycling through the tiers.
  constexpr size_t kTierFootprint = 1024;
  MachineConfig config = LeapVmmConfig(kFrames, 42);
  config.tier.enabled = true;
  config.tier.cxl_capacity_pages = 256;
  Machine machine(config);
  const Pid pid = machine.CreateProcess(kTierFootprint / 2);
  SimTimeNs now = WarmUp(machine, pid, kTierFootprint) + 10 * kNsPerMs;

  ScrambledZipfStream stream(kTierFootprint, 0.99);
  Rng rng(7);
  auto step = [&] {
    const MemOp op = stream.Next(rng);
    now += op.think_ns;
    const AccessResult result = machine.Access(pid, op.vpn, op.write, now);
    now += result.latency;
    return result;
  };
  // Long enough for the page cache and prefetch maps to reach their peak
  // size (zipf keeps shifting which pages are cached for ~100k accesses).
  for (size_t i = 0; i < 256 * kTierFootprint; ++i) {
    step();
  }

  const Counters& c = machine.counters();
  const uint64_t moved_before =
      c.Get(counter::kTierPromotions) + c.Get(counter::kTierDemotions);
  const SimTimeNs start = now;
  size_t allocs = 0;
  size_t misses = 0;
  for (size_t i = 0; i < 16 * kTierFootprint; ++i) {
    const size_t before = g_alloc_count;
    const AccessResult result = step();
    allocs += g_alloc_count - before;
    misses += result.type == AccessType::kMiss ? 1 : 0;
  }
  const uint64_t moved =
      c.Get(counter::kTierPromotions) + c.Get(counter::kTierDemotions) -
      moved_before;

  ASSERT_GT(misses, 0u);
  ASSERT_GT(now - start, 4 * kTierMigratePeriodNs);  // ticks fired
  ASSERT_GT(moved, 0u);  // ...and planned and executed migrations
  EXPECT_EQ(allocs, 0u) << "tier migration allocated on the access path";
}

}  // namespace
}  // namespace leap
