// Cluster subsystem tests: same-seed bit-identical runs, fabric contention
// (p99 remote latency rises with host count at fixed per-link bandwidth),
// placement-policy effects at cluster level, node failure/recovery with
// read-your-writes across re-mapped slabs, donor-pool exhaustion degrading
// gracefully (counted), and host join/leave.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/runtime/cluster.h"
#include "src/runtime/presets.h"
#include "src/workload/cluster_mix.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

constexpr size_t kFootprint = 2048;

// Small-slab Leap-stack host template so a few thousand pages exercise
// many slabs and both placement and repair see real work.
ClusterConfig SmallCluster(size_t hosts, size_t nodes) {
  ClusterConfig config;
  config.hosts = hosts;
  config.nodes = nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(/*total_frames=*/4096, /*seed=*/42);
  config.host.host_agent.slab_pages = 64;
  config.seed = 42;
  return config;
}

// Warm every host's working set back-to-back on the shared timeline, then
// run one mixed-pattern app per host (zipf / sequential / trace cycling).
struct MixedRun {
  std::vector<RunResult> results;
  std::vector<std::unique_ptr<AccessStream>> streams;
};

MixedRun RunMixed(Cluster& cluster, size_t accesses_per_host) {
  MixedRun out;
  std::vector<ClusterAppSpec> specs;
  SimTimeNs warm_end = 0;
  std::vector<Pid> pids;
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    const Pid pid = cluster.host(h).CreateProcess(kFootprint / 2);
    pids.push_back(pid);
    warm_end = WarmUp(cluster.host(h), pid, kFootprint, warm_end);
    out.streams.push_back(MakeClusterMixStream(h, kFootprint));
  }
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    RunConfig run;
    run.total_accesses = accesses_per_host;
    run.start_time_ns = warm_end + 10 * kNsPerMs;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], out.streams[h].get(), run});
  }
  out.results = cluster.Run(std::move(specs));
  return out;
}

// --- determinism -------------------------------------------------------------

struct ClusterFingerprint {
  std::vector<std::map<std::string, uint64_t>> host_counters;
  std::vector<SimTimeNs> completions;
  std::vector<uint64_t> p99s;
  uint64_t fabric_ops = 0;
  std::vector<uint64_t> node_reads;
  std::vector<size_t> node_slabs;

  bool operator==(const ClusterFingerprint&) const = default;
};

ClusterFingerprint FingerprintOnce(const ClusterConfig& config) {
  Cluster cluster(config);
  const MixedRun run = RunMixed(cluster, 8000);
  ClusterFingerprint fp;
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    fp.host_counters.push_back(cluster.host(h).counters().values());
    fp.completions.push_back(run.results[h].completion_ns);
    fp.p99s.push_back(cluster.host_remote_latency(h).Percentile(0.99));
  }
  const ClusterStats stats = cluster.Stats();
  fp.fabric_ops = stats.fabric_ops;
  fp.node_reads = stats.node_reads;
  fp.node_slabs = stats.node_slabs;
  return fp;
}

TEST(Cluster, SameSeedBitIdenticalCounters) {
  const ClusterConfig config = SmallCluster(3, 2);
  const ClusterFingerprint first = FingerprintOnce(config);
  const ClusterFingerprint second = FingerprintOnce(config);
  EXPECT_EQ(first.host_counters, second.host_counters);
  EXPECT_TRUE(first == second) << "non-counter cluster state diverged";
  // Vacuous determinism guard: the run must have touched the fabric.
  EXPECT_GT(first.fabric_ops, 0u);
  for (const auto& counters : first.host_counters) {
    EXPECT_GT(counters.at("remote_reads"), 0u);
  }
}

// --- fabric contention -------------------------------------------------------

// Acceptance criterion: with per-link bandwidth fixed, p99 remote latency
// must rise as hosts are added (4-host/2-node vs 1-host/2-node).
TEST(Cluster, FabricContentionRaisesTailLatencyWithHostCount) {
  auto p99_at_scale = [](size_t hosts) {
    ClusterConfig config = SmallCluster(hosts, 2);
    // A modest fabric makes contention visible at test sizes.
    config.fabric.link_gbps = 25.0;
    Cluster cluster(config);
    MixedRun run = RunMixed(cluster, 6000);
    Histogram merged;
    for (size_t h = 0; h < cluster.num_hosts(); ++h) {
      merged.Merge(cluster.host_remote_latency(h));
    }
    EXPECT_GT(merged.count(), 0u);
    return merged.Percentile(0.99);
  };
  const uint64_t p99_one = p99_at_scale(1);
  const uint64_t p99_four = p99_at_scale(4);
  EXPECT_GT(p99_four, p99_one)
      << "4 hosts on 2 nodes should queue behind each other";
}

// --- placement ---------------------------------------------------------------

// Acceptance criterion: power-of-two-choices beats first-fit on slab
// imbalance in a real cluster run.
TEST(Cluster, PowerOfTwoBeatsFirstFitOnSlabImbalance) {
  auto imbalance_with = [](PlacementPolicy policy) {
    ClusterConfig config = SmallCluster(4, 4);
    config.placement = policy;
    Cluster cluster(config);
    RunMixed(cluster, 2000);
    return cluster.Stats().SlabImbalance();
  };
  const size_t first_fit = imbalance_with(PlacementPolicy::kFirstFit);
  const size_t po2 = imbalance_with(PlacementPolicy::kPowerOfTwo);
  EXPECT_LT(po2, first_fit);
  // First-fit piles every primary on node 0 and every replica on node 1.
  EXPECT_GT(first_fit, 30u);
}

TEST(Cluster, StripedPlacementSpreadsEveryNode) {
  ClusterConfig config = SmallCluster(2, 4);
  config.placement = PlacementPolicy::kStriped;
  Cluster cluster(config);
  RunMixed(cluster, 2000);
  const ClusterStats stats = cluster.Stats();
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_GT(stats.node_slabs[n], 0u) << "node " << n;
  }
}

// --- failure / recovery ------------------------------------------------------

TEST(Cluster, NodeFailureRepairPreservesReadYourWrites) {
  ClusterConfig config = SmallCluster(2, 3);
  config.host.host_agent.slab_pages = 32;
  config.host.host_agent.replicas = 2;
  Cluster cluster(config);
  HostAgent* agent = cluster.host(0).host_agent();
  ASSERT_NE(agent, nullptr);
  Rng rng(7);

  // Generation 1: tags across 8 slabs, before any failure.
  auto tag1 = [](SwapSlot slot) { return slot * 31 + 5; };
  for (SwapSlot slot = 0; slot < 256; ++slot) {
    agent->WriteTag(slot, tag1(slot), /*now=*/0, rng);
  }

  // Fail a node that actually holds data; repair re-maps and re-replicates
  // on the shared clock.
  uint32_t victim = 0;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.node(n).stored_pages() > 0) {
      victim = static_cast<uint32_t>(n);
      break;
    }
  }
  cluster.ScheduleNodeFailure(victim, 1 * kNsPerMs);
  cluster.RunEventsUntil(2 * kNsPerMs);
  ASSERT_TRUE(cluster.node(victim).failed());

  const ClusterStats after_fail = cluster.Stats();
  EXPECT_EQ(after_fail.totals.Get(counter::kNodeFailures), 1u);
  EXPECT_GT(after_fail.totals.Get(counter::kSlabRepairs), 0u);
  EXPECT_GT(after_fail.totals.Get(counter::kRepairPageCopies), 0u);

  // Generation 2: overwrite half the slots while the node is down.
  auto tag2 = [](SwapSlot slot) { return slot * 131 + 9; };
  for (SwapSlot slot = 0; slot < 256; slot += 2) {
    agent->WriteTag(slot, tag2(slot), 3 * kNsPerMs, rng);
  }

  // Read-your-writes across the re-mapped slabs, while failed.
  for (SwapSlot slot = 0; slot < 256; ++slot) {
    const auto expected = (slot % 2 == 0) ? tag2(slot) : tag1(slot);
    ASSERT_EQ(agent->ReadTag(slot), expected) << "slot " << slot;
  }

  // Recovery: the node rejoins the pool; reads still see the latest tags.
  cluster.ScheduleNodeRecovery(victim, 4 * kNsPerMs);
  cluster.RunEventsUntil(5 * kNsPerMs);
  ASSERT_FALSE(cluster.node(victim).failed());
  for (SwapSlot slot = 0; slot < 256; ++slot) {
    const auto expected = (slot % 2 == 0) ? tag2(slot) : tag1(slot);
    ASSERT_EQ(agent->ReadTag(slot), expected) << "slot " << slot;
  }
  EXPECT_EQ(cluster.Stats().totals.Get(counter::kNodeRecoveries), 1u);
}

TEST(Cluster, FailureDuringRunKeepsHostsFinishing) {
  ClusterConfig config = SmallCluster(2, 3);
  config.host.host_agent.replicas = 2;
  Cluster cluster(config);
  // Fail node 0 shortly into the measured run, recover it later; the apps
  // must still finish (reads fail over / hit repaired replicas).
  std::vector<ClusterAppSpec> specs;
  std::vector<std::unique_ptr<AccessStream>> streams;
  SimTimeNs warm_end = 0;
  std::vector<Pid> pids;
  for (size_t h = 0; h < 2; ++h) {
    const Pid pid = cluster.host(h).CreateProcess(kFootprint / 2);
    pids.push_back(pid);
    warm_end = WarmUp(cluster.host(h), pid, kFootprint, warm_end);
    streams.push_back(std::make_unique<SequentialStream>(kFootprint, 300));
  }
  cluster.ScheduleNodeFailure(0, warm_end + 12 * kNsPerMs);
  cluster.ScheduleNodeRecovery(0, warm_end + 40 * kNsPerMs);
  for (size_t h = 0; h < 2; ++h) {
    RunConfig run;
    run.total_accesses = 10000;
    run.start_time_ns = warm_end + 10 * kNsPerMs;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  const auto results = cluster.Run(std::move(specs));
  EXPECT_TRUE(results[0].finished);
  EXPECT_TRUE(results[1].finished);
  // The workloads may finish before the scheduled recovery: advance the
  // shared clock past it so the scenario completes.
  cluster.RunEventsUntil(warm_end + 50 * kNsPerMs);
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.totals.Get(counter::kNodeFailures), 1u);
  EXPECT_EQ(stats.totals.Get(counter::kNodeRecoveries), 1u);
}

// --- capacity exhaustion -----------------------------------------------------

TEST(Cluster, CapacityExhaustionIsCountedAndDegradesGracefully) {
  ClusterConfig config = SmallCluster(1, 1);
  config.node_capacity_slabs = 2;  // 2 slabs of 64 pages vs 2048-page set
  config.host.host_agent.replicas = 1;
  Cluster cluster(config);
  const MixedRun run = RunMixed(cluster, 6000);
  EXPECT_TRUE(run.results[0].finished);
  const ClusterStats stats = cluster.Stats();
  // Every slab past the first two surfaced as a counted exhaustion event
  // and its I/O degraded to the overflow medium instead of wedging.
  EXPECT_GT(stats.totals.Get(counter::kRemoteCapacityExhausted), 0u);
  EXPECT_GT(stats.totals.Get(counter::kOverflowReads), 0u);
  EXPECT_GT(stats.totals.Get(counter::kOverflowWrites), 0u);
  EXPECT_EQ(cluster.host(0).host_agent()->overflow_slab_count(),
            stats.totals.Get(counter::kRemoteCapacityExhausted));
}

// --- membership --------------------------------------------------------------

TEST(Cluster, HostJoinAndLeaveReturnSlabsToThePool) {
  ClusterConfig config = SmallCluster(1, 2);
  Cluster cluster(config);
  const size_t joined = cluster.AddHost();
  EXPECT_EQ(joined, 1u);
  EXPECT_EQ(cluster.num_hosts(), 2u);

  RunMixed(cluster, 2000);
  const size_t mapped_before = cluster.Stats().node_slabs[0] +
                               cluster.Stats().node_slabs[1];
  EXPECT_GT(cluster.host(1).host_agent()->mapped_slab_count(), 0u);

  cluster.RemoveHost(1);
  EXPECT_FALSE(cluster.HostAlive(1));
  const size_t mapped_after =
      cluster.Stats().node_slabs[0] + cluster.Stats().node_slabs[1];
  EXPECT_LT(mapped_after, mapped_before);
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.totals.Get(counter::kHostJoins), 2u);
  EXPECT_EQ(stats.totals.Get(counter::kHostLeaves), 1u);
}

TEST(Cluster, ScheduledHostLeaveStopsItsWorkloadMidRun) {
  ClusterConfig config = SmallCluster(2, 2);
  Cluster cluster(config);
  std::vector<ClusterAppSpec> specs;
  std::vector<std::unique_ptr<AccessStream>> streams;
  SimTimeNs warm_end = 0;
  std::vector<Pid> pids;
  for (size_t h = 0; h < 2; ++h) {
    const Pid pid = cluster.host(h).CreateProcess(kFootprint / 2);
    pids.push_back(pid);
    warm_end = WarmUp(cluster.host(h), pid, kFootprint, warm_end);
    streams.push_back(std::make_unique<SequentialStream>(kFootprint, 300));
  }
  cluster.ScheduleHostLeave(1, warm_end + 12 * kNsPerMs);
  for (size_t h = 0; h < 2; ++h) {
    RunConfig run;
    run.total_accesses = 20000;
    run.start_time_ns = warm_end + 10 * kNsPerMs;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  const auto results = cluster.Run(std::move(specs));
  EXPECT_TRUE(results[0].finished);
  EXPECT_FALSE(results[1].finished);
  EXPECT_LT(results[1].accesses, 20000u);
  EXPECT_GT(results[1].accesses, 0u);
}

// A spec naming a host the cluster does not have is rejected before any
// app steps, instead of indexing past the host table.
TEST(Cluster, RunRejectsUnknownHost) {
  Cluster cluster(SmallCluster(2, 2));
  const Pid pid = cluster.host(0).CreateProcess(kFootprint / 2);
  SequentialStream stream(kFootprint, 300);
  RunConfig run;
  run.total_accesses = 100;
  EXPECT_THROW(cluster.Run({{0, pid, &stream, run}, {2, pid, &stream, run}}),
               std::out_of_range);
  // Nothing ran, and a valid spec list still runs afterwards.
  EXPECT_EQ(cluster.host(0).counters().Get(counter::kPageFaults), 0u);
  const std::vector<RunResult> results = cluster.Run({{0, pid, &stream, run}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].finished);
  EXPECT_EQ(results[0].accesses, 100u);
}

}  // namespace
}  // namespace leap
