// BudgetGovernor: AIMD prefetch budgets driven by congestion signals and
// per-tenant outcome feedback.
//
//  - shrink: a wasteful tenant's budget collapses multiplicatively while
//    fabric queue delay (or capacity exhaustion) signals congestion
//  - recovery: additive growth back to the ceiling once congestion clears
//  - isolation: a zipf-storm tenant collapses, a sequential (accurate)
//    tenant's window stays intact through the same congestion epochs
//  - determinism: same-seed cluster runs with the governor enabled make
//    bit-identical budget decisions and counters
#include <vector>

#include <gtest/gtest.h>

#include "src/paging/swap_manager.h"
#include "src/prefetch/budget_governor.h"
#include "src/runtime/cluster.h"
#include "src/runtime/presets.h"
#include "src/workload/cluster_mix.h"

namespace leap {
namespace {

PrefetchBudgetConfig TestConfig() {
  PrefetchBudgetConfig config;
  config.enabled = true;
  config.min_budget = 1;
  config.max_budget = 16;
  config.queue_delay_threshold_ns = 10'000.0;
  config.decrease_factor = 0.5;
  config.increase_step = 1.0;
  config.adjust_period_ns = 1 * kNsPerMs;
  config.accuracy_keep_threshold = 0.5;
  return config;
}

CongestionSignals Congested() {
  CongestionSignals s;
  // Demand-class congestion, well above the 10us threshold. The aggregate
  // EWMA rides along as the fabric would report it.
  s.demand_queue_delay_ewma_ns = 50'000.0;
  s.queue_delay_ewma_ns = 50'000.0;
  return s;
}

CongestionSignals Calm() { return CongestionSignals{}; }

// One AIMD epoch: `issued` prefetches of which `hits` earned hits, then an
// epoch boundary crossing at `*now` += period.
size_t Epoch(BudgetGovernor& gov, Pid pid, SimTimeNs* now,
             const CongestionSignals& signals, uint64_t issued,
             uint64_t hits) {
  gov.OnPrefetchIssued(pid, issued);
  for (uint64_t h = 0; h < hits; ++h) {
    gov.OnPrefetchHit(pid);
  }
  for (uint64_t d = hits; d < issued; ++d) {
    gov.OnPrefetchDropped(pid);
  }
  *now += gov.config().adjust_period_ns;
  return gov.BudgetFor(pid, *now, signals);
}

TEST(BudgetGovernor, StartsAtMaxBudget) {
  BudgetGovernor gov(TestConfig());
  EXPECT_EQ(gov.BudgetFor(1, 0, Calm()), 16u);
  EXPECT_DOUBLE_EQ(gov.budget(1), 16.0);
}

TEST(BudgetGovernor, AimdShrinkUnderInjectedQueueDelay) {
  BudgetGovernor gov(TestConfig());
  SimTimeNs now = 0;
  gov.BudgetFor(1, now, Calm());  // create tenant state

  // Wasteful tenant (no hits) under sustained fabric queue delay:
  // multiplicative halving 16 -> 8 -> 4 -> 2 -> 1.
  std::vector<size_t> budgets;
  for (int epoch = 0; epoch < 5; ++epoch) {
    budgets.push_back(Epoch(gov, 1, &now, Congested(), /*issued=*/16,
                            /*hits=*/0));
  }
  EXPECT_EQ(budgets, (std::vector<size_t>{8, 4, 2, 1, 1}));
  EXPECT_TRUE(gov.congested());
  EXPECT_GE(gov.shrink_events(), 4u);
}

TEST(BudgetGovernor, BackgroundNoiseDoesNotTripCongestion) {
  // A repair/writeback storm inflates the aggregate queue-delay EWMA while
  // the demand/prefetch classes stay calm: the governor must not throttle
  // anyone - background congestion is not data-path congestion.
  BudgetGovernor gov(TestConfig());
  SimTimeNs now = 0;
  gov.BudgetFor(1, now, Calm());
  CongestionSignals s;
  s.queue_delay_ewma_ns = 500'000.0;  // aggregate screams...
  s.demand_queue_delay_ewma_ns = 100.0;    // ...but demand is fine
  s.prefetch_queue_delay_ewma_ns = 200.0;  // ...and so is prefetch
  EXPECT_EQ(Epoch(gov, 1, &now, s, /*issued=*/16, /*hits=*/0), 16u);
  EXPECT_FALSE(gov.congested());
  EXPECT_EQ(gov.shrink_events(), 0u);
  // The same delay on the prefetch class alone does trip it.
  CongestionSignals p;
  p.prefetch_queue_delay_ewma_ns = 50'000.0;
  EXPECT_EQ(Epoch(gov, 1, &now, p, /*issued=*/16, /*hits=*/0), 8u);
  EXPECT_TRUE(gov.congested());
}

TEST(BudgetGovernor, CapacityExhaustionAloneTripsCongestion) {
  BudgetGovernor gov(TestConfig());
  SimTimeNs now = 0;
  gov.BudgetFor(1, now, Calm());
  CongestionSignals s;          // no queue delay...
  s.capacity_exhausted_total = 3;  // ...but the donor pool ran dry
  EXPECT_EQ(Epoch(gov, 1, &now, s, /*issued=*/8, /*hits=*/0), 8u);
  EXPECT_TRUE(gov.congested());
  // The cumulative count was consumed; an unchanged total is calm again.
  EXPECT_EQ(Epoch(gov, 1, &now, s, /*issued=*/8, /*hits=*/0), 9u);
  EXPECT_FALSE(gov.congested());
}

TEST(BudgetGovernor, RecoveryAfterCongestionClears) {
  BudgetGovernor gov(TestConfig());
  SimTimeNs now = 0;
  gov.BudgetFor(1, now, Calm());
  for (int epoch = 0; epoch < 4; ++epoch) {
    Epoch(gov, 1, &now, Congested(), /*issued=*/16, /*hits=*/0);
  }
  ASSERT_EQ(gov.BudgetFor(1, now, Congested()), 1u);

  // Calm epochs: +1 per epoch until back at the ceiling, then parked.
  size_t budget = 0;
  for (int epoch = 0; epoch < 20; ++epoch) {
    budget = Epoch(gov, 1, &now, Calm(), /*issued=*/4, /*hits=*/4);
  }
  EXPECT_EQ(budget, 16u);
  EXPECT_GE(gov.grow_events(), 15u);
}

TEST(BudgetGovernor, PerTenantIsolationStormCollapsesAccurateSurvives) {
  BudgetGovernor gov(TestConfig());
  SimTimeNs now = 0;
  gov.BudgetFor(1, now, Calm());  // zipf-storm tenant: issues, never hits
  gov.BudgetFor(2, now, Calm());  // sequential tenant: every prefetch hits

  for (int epoch = 0; epoch < 6; ++epoch) {
    gov.OnPrefetchIssued(1, 16);  // storm: 0/16 accuracy
    gov.OnPrefetchIssued(2, 8);   // sequential: 8/8 accuracy
    for (int h = 0; h < 8; ++h) {
      gov.OnPrefetchHit(2);
    }
    for (int d = 0; d < 16; ++d) {
      gov.OnPrefetchDropped(1);
    }
    now += gov.config().adjust_period_ns;
    gov.BudgetFor(1, now, Congested());
  }

  EXPECT_EQ(gov.BudgetFor(1, now, Congested()), 1u)
      << "storm tenant should collapse to min_budget";
  EXPECT_EQ(gov.BudgetFor(2, now, Congested()), 16u)
      << "accurate tenant's window must stay intact";
}

// The footprint-share ceiling (SwapManager::SlotsOf) binds only under
// congestion: a tenant holding a sliver of the swapped working set is
// capped near min while the fabric is contended, and back at max_budget
// the moment it calms.
TEST(BudgetGovernor, FootprintShareCeilingBindsOnlyUnderCongestion) {
  SwapManager swap;
  for (Vpn v = 0; v < 10; ++v) {
    swap.Allocate(/*pid=*/1, v);  // small tenant: 10 slots
  }
  for (Vpn v = 0; v < 990; ++v) {
    swap.Allocate(/*pid=*/2, v);  // large tenant: 99% of the footprint
  }
  BudgetGovernor gov(TestConfig(), &swap);
  SimTimeNs now = 0;
  gov.BudgetFor(1, now, Calm());
  gov.BudgetFor(2, now, Calm());

  // Calm: both tenants sit at max regardless of footprint.
  EXPECT_EQ(gov.BudgetFor(1, now, Calm()), 16u);
  EXPECT_EQ(gov.BudgetFor(2, now, Calm()), 16u);
  // cap_1 = ceil(16 * (10/1000) * 2) = 1, clamped to min_budget.
  EXPECT_EQ(gov.CapFor(1), 1u);
  EXPECT_EQ(gov.CapFor(2), 16u);

  // Congested epoch: the small tenant's ceiling binds, the large one's
  // does not (its share exceeds 1/n).
  now += gov.config().adjust_period_ns;
  EXPECT_EQ(gov.BudgetFor(1, now, Congested()), 1u);
  EXPECT_EQ(gov.BudgetFor(2, now, Congested()), 16u);

  // Congestion clears: the ceiling lifts immediately.
  now += gov.config().adjust_period_ns;
  EXPECT_EQ(gov.BudgetFor(1, now, Calm()), 16u);
}

TEST(BudgetGovernor, UnknownTenantUsesMaxAndDoesNotCrash) {
  BudgetGovernor gov(TestConfig());
  EXPECT_DOUBLE_EQ(gov.budget(99), 16.0);
  gov.OnPrefetchHit(99);      // feedback for a tenant never seen: ignored
  gov.OnPrefetchDropped(99);
  EXPECT_DOUBLE_EQ(gov.budget(99), 16.0);
}

// Same-seed cluster runs with the governor enabled are bit-identical:
// budgets are a pure function of the op sequence and signal snapshots.
TEST(BudgetGovernor, SameSeedClusterRunsMakeIdenticalBudgetDecisions) {
  auto run = [] {
    ClusterConfig config;
    config.hosts = 2;
    config.nodes = 2;
    config.node_capacity_slabs = 4096;
    config.host = LeapVmmConfig(/*total_frames=*/1 << 12, /*seed=*/42);
    config.host.prefetcher = PrefetchKind::kNextNLine;
    config.host.budget = TestConfig();
    config.host.budget.queue_delay_threshold_ns = 2'000.0;
    config.seed = 91;
    Cluster cluster(config);

    std::vector<std::unique_ptr<AccessStream>> streams;
    std::vector<ClusterAppSpec> specs;
    SimTimeNs warm_end = 0;
    constexpr size_t kFootprint = 1024;
    for (size_t h = 0; h < 2; ++h) {
      const Pid pid = cluster.host(h).CreateProcess(kFootprint / 2);
      warm_end = WarmUp(cluster.host(h), pid, kFootprint, warm_end);
      streams.push_back(MakeClusterMixStream(h, kFootprint));
      RunConfig rc;
      rc.total_accesses = 4000;
      rc.start_time_ns = warm_end + 10 * kNsPerMs;
      rc.seed = 100 + h;
      specs.push_back({h, pid, streams.back().get(), rc});
    }
    cluster.Run(std::move(specs));

    std::vector<double> budgets;
    std::vector<uint64_t> stats;
    for (size_t h = 0; h < 2; ++h) {
      const BudgetGovernor* gov = cluster.host(h).governor();
      EXPECT_NE(gov, nullptr);
      budgets.push_back(gov->budget(1));
      stats.push_back(gov->shrink_events());
      stats.push_back(gov->grow_events());
      stats.push_back(gov->epochs());
    }
    return std::tuple(budgets, stats, cluster.Stats().totals.values());
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(std::get<0>(first), std::get<0>(second));
  EXPECT_EQ(std::get<1>(first), std::get<1>(second));
  EXPECT_EQ(std::get<2>(first), std::get<2>(second));
  // The runs must have exercised the governor's epoch machinery.
  EXPECT_GT(std::get<1>(first)[2], 0u);
}

// VFS mode shares the page cache across processes, so tenant A's prefetch
// can be consumed by tenant B. The governor's accuracy ledger must credit
// the ISSUING tenant (the cache entry's pid), not the accessor - else the
// issuer reads as 0-accuracy and collapses despite every prefetch hitting.
TEST(BudgetGovernor, VfsCrossTenantHitCreditsIssuingTenant) {
  MachineConfig config =
      DefaultVfsConfig(PrefetchKind::kNextNLine, /*total_frames=*/1 << 12,
                       /*vfs_cache_pages=*/2048, /*seed=*/42);
  config.budget = TestConfig();
  Machine machine(config);
  const Pid a = machine.CreateProcess(0);
  const Pid b = machine.CreateProcess(0);

  // Establish the file size (readahead is bounded by isize), then A's
  // miss on page 0 issues next-8-line prefetches for 1..8, charged to A.
  SimTimeNs now = kNsPerMs;
  now += machine.Access(a, 20, /*write=*/false, now).latency;
  now += machine.Access(a, 0, /*write=*/false, now).latency;
  ASSERT_GT(machine.governor()->epoch_issued(a), 0u);

  // B consumes the prefetched neighbors: hits must accrue to A's ledger.
  for (Vpn vpn = 1; vpn <= 4; ++vpn) {
    now += machine.Access(b, vpn, /*write=*/false, now).latency;
  }
  EXPECT_GE(machine.governor()->epoch_hits(a), 4u);
  EXPECT_EQ(machine.governor()->epoch_hits(b), 0u);
}

// With the governor enabled but budgets never binding (calm fabric, max
// budget above every window), behavior is identical to governor-off: the
// clamp is pure pass-through.
TEST(BudgetGovernor, NonBindingBudgetIsBehaviorNeutral) {
  auto counters = [](bool enabled) {
    MachineConfig config = LeapVmmConfig(/*total_frames=*/1 << 13, 42);
    config.budget.enabled = enabled;
    Machine machine(config);
    const Pid pid = machine.CreateProcess(1024);
    SimTimeNs now = WarmUp(machine, pid, 2048) + kNsPerMs;
    SequentialStream stream(2048, 500);
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      const MemOp op = stream.Next(rng);
      now += op.think_ns;
      now += machine.Access(pid, op.vpn, op.write, now).latency;
    }
    return machine.counters().values();
  };
  EXPECT_EQ(counters(false), counters(true));
}

}  // namespace
}  // namespace leap
