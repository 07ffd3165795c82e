// Sharded engine tests: the determinism contract (one shard reproduces a
// golden ClusterStats pinned from the single-queue engine; same seed +
// same shard count is bit-identical across runs and across mailbox
// capacities), the shard planner and lookahead derivation, the SPSC
// mailbox's FIFO/overflow behavior, what every shard count supports
// (correlated failures through FaultInjector, DumpStats), the protocol
// edge cases the window design calls out - scenario events landing
// exactly on a window boundary, donor-only shards, and apps whose every
// access is a zero-latency local hit - and the one-shard-only features
// the constructor rejects at shards > 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cluster/fault_injector.h"
#include "src/runtime/cluster.h"
#include "src/runtime/presets.h"
#include "src/runtime/shard_plan.h"
#include "src/sim/shard_sync.h"
#include "src/workload/cluster_mix.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

constexpr size_t kFootprint = 2048;

ClusterConfig SmallCluster(size_t hosts, size_t nodes, size_t shards = 1,
                           size_t mirror_every = 0) {
  ClusterConfig config;
  config.hosts = hosts;
  config.nodes = nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(/*total_frames=*/4096, /*seed=*/42);
  config.host.host_agent.slab_pages = 64;
  config.seed = 42;
  config.shards = shards;
  config.mirror_every = mirror_every;
  return config;
}

// Warm every host back-to-back, then one mixed-pattern app per host -
// the exact sequence cluster_test drives.
std::vector<RunResult> RunMixed(Cluster& cluster, size_t accesses_per_host,
                                std::vector<std::unique_ptr<AccessStream>>& streams,
                                SimTimeNs* warm_end_out = nullptr) {
  std::vector<ClusterAppSpec> specs;
  SimTimeNs warm_end = 0;
  std::vector<Pid> pids;
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    const Pid pid = cluster.host(h).CreateProcess(kFootprint / 2);
    pids.push_back(pid);
    warm_end = WarmUp(cluster.host(h), pid, kFootprint, warm_end);
    streams.push_back(MakeClusterMixStream(h, kFootprint));
  }
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    RunConfig run;
    run.total_accesses = accesses_per_host;
    run.start_time_ns = warm_end + 10 * kNsPerMs;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  if (warm_end_out != nullptr) {
    *warm_end_out = warm_end;
  }
  return cluster.Run(std::move(specs));
}

// Probe one failure-free run to find a simulated time guaranteed to fall
// inside the measured phase (failures scheduled after the last access
// never fire).
SimTimeNs MidRunTime(const ClusterConfig& config) {
  Cluster probe(config);
  std::vector<std::unique_ptr<AccessStream>> streams;
  SimTimeNs warm_end = 0;
  const std::vector<RunResult> results =
      RunMixed(probe, 6000, streams, &warm_end);
  // completion_ns is a duration from the app's start; every app starts at
  // warm_end + 10ms, so the shortest-lived app ends the measured phase.
  SimTimeNs shortest = ~SimTimeNs{0};
  for (const RunResult& result : results) {
    shortest = std::min(shortest, result.completion_ns);
  }
  EXPECT_GT(shortest, 0u);
  const SimTimeNs start = warm_end + 10 * kNsPerMs;
  return start + shortest / 2;
}

// Field-by-field ClusterStats equality, doubles compared exactly: the
// engine's contract is bit-identity, not tolerance.
void ExpectStatsEqual(const ClusterStats& a, const ClusterStats& b) {
  EXPECT_EQ(a.totals.values(), b.totals.values());
  EXPECT_EQ(a.node_slabs, b.node_slabs);
  EXPECT_EQ(a.node_reads, b.node_reads);
  EXPECT_EQ(a.node_writes, b.node_writes);
  EXPECT_EQ(a.fabric_ops, b.fabric_ops);
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_EQ(a.queue_delay_mean_ns, b.queue_delay_mean_ns);
  ASSERT_EQ(a.host_uplink_classes.size(), b.host_uplink_classes.size());
  for (size_t h = 0; h < a.host_uplink_classes.size(); ++h) {
    EXPECT_EQ(a.host_uplink_classes[h].ops, b.host_uplink_classes[h].ops);
    EXPECT_EQ(a.host_uplink_classes[h].bytes, b.host_uplink_classes[h].bytes);
  }
  ASSERT_EQ(a.node_downlink_classes.size(), b.node_downlink_classes.size());
  for (size_t n = 0; n < a.node_downlink_classes.size(); ++n) {
    EXPECT_EQ(a.node_downlink_classes[n].ops, b.node_downlink_classes[n].ops);
    EXPECT_EQ(a.node_downlink_classes[n].bytes,
              b.node_downlink_classes[n].bytes);
  }
  for (size_t c = 0; c < kIoClassCount; ++c) {
    EXPECT_EQ(a.class_queue_delay_ewma_ns[c], b.class_queue_delay_ewma_ns[c])
        << "class " << c;
    EXPECT_EQ(a.class_queue_delay_mean_ns[c], b.class_queue_delay_mean_ns[c])
        << "class " << c;
    EXPECT_EQ(a.class_sojourn_mean_ns[c], b.class_sojourn_mean_ns[c])
        << "class " << c;
    EXPECT_EQ(a.stages.cls[c].software_ns, b.stages.cls[c].software_ns);
    EXPECT_EQ(a.stages.cls[c].queue_ns, b.stages.cls[c].queue_ns);
    EXPECT_EQ(a.stages.cls[c].wire_ns, b.stages.cls[c].wire_ns);
    EXPECT_EQ(a.stages.cls[c].stall_ns, b.stages.cls[c].stall_ns);
    EXPECT_EQ(a.stages.cls[c].service_ns, b.stages.cls[c].service_ns);
    EXPECT_EQ(a.stages.cls[c].ops, b.stages.cls[c].ops);
  }
  EXPECT_EQ(a.stages.demand_p99_software_ns, b.stages.demand_p99_software_ns);
  EXPECT_EQ(a.stages.demand_p99_queue_ns, b.stages.demand_p99_queue_ns);
  EXPECT_EQ(a.stages.demand_p99_wire_ns, b.stages.demand_p99_wire_ns);
  EXPECT_EQ(a.stages.demand_p99_stall_ns, b.stages.demand_p99_stall_ns);
  EXPECT_EQ(a.stages.demand_p99_service_ns, b.stages.demand_p99_service_ns);
  EXPECT_EQ(a.stages.demand_p99_total_ns, b.stages.demand_p99_total_ns);
  EXPECT_EQ(a.node_health_ewma_ns, b.node_health_ewma_ns);
  EXPECT_EQ(a.node_health_state, b.node_health_state);
  EXPECT_EQ(a.tier_pages, b.tier_pages);
}

void ExpectResultsEqual(const std::vector<RunResult>& a,
                        const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].finished, b[i].finished) << "app " << i;
    EXPECT_EQ(a[i].completion_ns, b[i].completion_ns) << "app " << i;
    EXPECT_EQ(a[i].accesses, b[i].accesses) << "app " << i;
    EXPECT_EQ(a[i].app_ops, b[i].app_ops) << "app " << i;
    EXPECT_EQ(a[i].ops_per_sec, b[i].ops_per_sec) << "app " << i;
    EXPECT_EQ(a[i].remote_access_latency.count(),
              b[i].remote_access_latency.count());
    EXPECT_EQ(a[i].remote_access_latency.Sum(),
              b[i].remote_access_latency.Sum());
    EXPECT_EQ(a[i].miss_latency.count(), b[i].miss_latency.count());
    EXPECT_EQ(a[i].miss_latency.Percentile(0.99),
              b[i].miss_latency.Percentile(0.99));
  }
}

// --- shard planner -----------------------------------------------------------

TEST(ShardPlan, HostsContiguousNodesRoundRobin) {
  const ShardPlan plan = BuildShardPlan(/*hosts=*/10, /*nodes=*/5,
                                        /*shards=*/4);
  ASSERT_EQ(plan.shards, 4u);
  // 10 hosts over 4 shards: blocks of 3,3,2,2, contiguous ids.
  EXPECT_EQ(plan.shard_hosts[0], (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(plan.shard_hosts[1], (std::vector<uint32_t>{3, 4, 5}));
  EXPECT_EQ(plan.shard_hosts[2], (std::vector<uint32_t>{6, 7}));
  EXPECT_EQ(plan.shard_hosts[3], (std::vector<uint32_t>{8, 9}));
  // 5 nodes round-robin: 0,4 -> s0; 1 -> s1; 2 -> s2; 3 -> s3.
  EXPECT_EQ(plan.shard_nodes[0], (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(plan.shard_nodes[1], (std::vector<uint32_t>{1}));
  for (size_t h = 0; h < 10; ++h) {
    EXPECT_EQ(plan.host_shard[h], h < 3 ? 0u : (h < 6 ? 1u : (h < 8 ? 2u : 3u)));
  }
  for (size_t n = 0; n < 5; ++n) {
    EXPECT_EQ(plan.node_shard[n], n % 4);
  }
}

TEST(ShardPlan, ClampsShardCount) {
  EXPECT_EQ(BuildShardPlan(4, 2, 0).shards, 1u);
  EXPECT_EQ(BuildShardPlan(4, 2, 100).shards, 4u);
  EXPECT_EQ(BuildShardPlan(2, 8, 100).shards, 8u);
  EXPECT_EQ(BuildShardPlan(0, 0, 3).shards, 1u);
}

TEST(ShardPlan, DonorOnlyShardIsLegal) {
  // 2 hosts / 4 nodes / 3 shards: shard 2 gets node 2 and no hosts.
  const ShardPlan plan = BuildShardPlan(2, 4, 3);
  EXPECT_TRUE(plan.shard_hosts[2].empty());
  EXPECT_EQ(plan.shard_nodes[2], (std::vector<uint32_t>{2}));
}

TEST(ShardPlan, FabricLookaheadIsBaseMinPlusWireTime) {
  FabricConfig fabric;
  fabric.base_min_ns = 2500;
  fabric.op_bytes = 4160;
  fabric.link_gbps = 56.0;
  // 4160 bytes * 8 / 56 gbps = 594.28... ns -> truncates to 594.
  EXPECT_EQ(FabricLookaheadNs(fabric), 2500u + 594u);

  FabricConfig degenerate;
  degenerate.base_min_ns = 0;
  degenerate.link_gbps = 0.0;
  EXPECT_EQ(FabricLookaheadNs(degenerate), 1u) << "window must stay nonzero";
}

// --- mailbox -----------------------------------------------------------------

TEST(SpscMailbox, DrainsInFifoOrderAcrossOverflow) {
  SpscMailbox mailbox(/*capacity_pow2=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    CrossShardOp op;
    op.seq = i;
    op.effect_ts = 1000 + i;
    mailbox.Push(op);
  }
  // Ring held 4; the rest spilled, and delivery is unaffected.
  EXPECT_EQ(mailbox.overflowed(), 6u);
  std::vector<CrossShardOp> out;
  mailbox.DrainTo(out);
  ASSERT_EQ(out.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].seq, i) << "per-sender FIFO must survive the spill";
  }
  EXPECT_TRUE(mailbox.Empty());
  // Once drained, the ring is usable again (no sticky overflow).
  CrossShardOp op;
  op.seq = 42;
  mailbox.Push(op);
  EXPECT_EQ(mailbox.overflowed(), 6u);
  out.clear();
  mailbox.DrainTo(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 42u);
}

TEST(SpscMailbox, CrossShardOpOrderBreaksTiesBySenderThenSeq) {
  CrossShardOp a, b;
  a.effect_ts = b.effect_ts = 5000;
  a.sender = 0;
  b.sender = 1;
  EXPECT_TRUE(CrossShardOpBefore(a, b));
  EXPECT_FALSE(CrossShardOpBefore(b, a));
  b.sender = 0;
  a.seq = 3;
  b.seq = 7;
  EXPECT_TRUE(CrossShardOpBefore(a, b));
  b.effect_ts = 4999;
  EXPECT_TRUE(CrossShardOpBefore(b, a)) << "time dominates sender/seq";
}

// --- one shard: golden stats ------------------------------------------------

// Per-IoClass golden values: EWMA / whole-run mean queue delay / mean
// sojourn, the stage sums (software, queue, wire, stall, service, ops),
// and the class's ops on each host uplink and node downlink.
struct ClassGolden {
  double ewma_ns;
  double mean_ns;
  double sojourn_ns;
  std::array<uint64_t, 6> stages;
  std::vector<uint64_t> uplink_ops;
  std::vector<uint64_t> downlink_ops;
};

// One shard is the single-queue run: the stats of a small config (3 hosts,
// 2 nodes, health monitor on, 6000 mixed accesses per host) must match,
// bit for bit, the values the single-queue engine produced before the two
// engines were folded into one.
TEST(ShardedCluster, SingleShardMatchesGoldenStats) {
  ClusterConfig config = SmallCluster(3, 2);
  config.health_monitor_enabled = true;
  Cluster cluster(config);
  ASSERT_EQ(cluster.num_shards(), 1u);
  std::vector<std::unique_ptr<AccessStream>> streams;
  const std::vector<RunResult> results = RunMixed(cluster, 6000, streams);
  ASSERT_EQ(results.size(), 3u);
  const ClusterStats stats = cluster.Stats();

  EXPECT_EQ(stats.totals.values(),
            (std::map<std::string, uint64_t>{
                {"cache_adds", 12912},
                {"cache_hits", 10193},
                {"cache_misses", 2650},
                {"demand_reads", 2650},
                {"eager_frees", 10193},
                {"evictions", 15984},
                {"host_joins", 3},
                {"page_faults", 18987},
                {"prefetch_hits", 10193},
                {"prefetch_issued", 10262},
                {"prefetch_wait_hits", 2798},
                {"remote_reads", 12912},
                {"remote_writes", 6089},
                {"writebacks", 6089},
            }));
  EXPECT_EQ(stats.node_slabs, (std::vector<size_t>{96, 96}));
  EXPECT_EQ(stats.node_reads, (std::vector<uint64_t>{6881, 6031}));
  EXPECT_EQ(stats.node_writes, (std::vector<uint64_t>{6089, 6089}));
  EXPECT_EQ(stats.fabric_ops, 25090u);
  EXPECT_EQ(stats.fabric_bytes, 104374400u);
  EXPECT_EQ(stats.queue_delay_mean_ns, 0x1.8df4e37df8346p+12);
  const ClassGolden classes[kIoClassCount] = {
      {0x1.e8ebc495881b5p+6, 0x1.7e374b2861607p+11, 0x1.3493fce89f34p+13, {6643206u, 7667397u, 1574100u, 435582u, 9847136u, 2650u}, {1070u, 671u, 909u}, {1143u, 1507u}},
      {0x1.746d6426ab7fap+10, 0x1.247cf0e1ea25ap+12, 0x1.820dd82f7f79ep+13, {34279423u, 45182031u, 6095628u, 2842167u, 38374734u, 10262u}, {14u, 5333u, 4915u}, {5738u, 4524u}},
      {0x0p+0, 0x0p+0, 0x0p+0, {0u, 0u, 0u, 0u, 0u, 0u}, {0u, 0u, 0u}, {0u, 0u}},
      {0x1.cb51948c3f07fp+10, 0x1.09ebe3130ba56p+13, 0x1.e0f227c5cffcap+13, {30957340u, 96971500u, 7233732u, 6657019u, 45603110u, 12178u}, {3986u, 4096u, 4096u}, {6089u, 6089u}},
      {0x0p+0, 0x0p+0, 0x0p+0, {0u, 0u, 0u, 0u, 0u, 0u}, {0u, 0u, 0u}, {0u, 0u}},
      {0x0p+0, 0x0p+0, 0x0p+0, {0u, 0u, 0u, 0u, 0u, 0u}, {0u, 0u, 0u}, {0u, 0u}},
      {0x0p+0, 0x0p+0, 0x0p+0, {0u, 0u, 0u, 0u, 0u, 0u}, {0u, 0u, 0u}, {0u, 0u}},
  };
  // demand p99 per stage: software, queue, wire, stall, service, total
  EXPECT_EQ(stats.stages.demand_p99_software_ns, 3472u);
  EXPECT_EQ(stats.stages.demand_p99_queue_ns, 23936u);
  EXPECT_EQ(stats.stages.demand_p99_wire_ns, 594u);
  EXPECT_EQ(stats.stages.demand_p99_stall_ns, 2096u);
  EXPECT_EQ(stats.stages.demand_p99_service_ns, 5728u);
  EXPECT_EQ(stats.stages.demand_p99_total_ns, 32640u);
  EXPECT_EQ(stats.node_health_ewma_ns, (std::vector<double>{0x1.256dd2e1458a8p+12, 0x1.1b76876f71dbp+12}));
  EXPECT_EQ(stats.node_health_state, (std::vector<NodeHealth>{NodeHealth(0), NodeHealth(0)}));
  EXPECT_TRUE(stats.tier_pages.empty());
  // per app: completion_ns, remote accesses, miss p99
  EXPECT_EQ(results[0].completion_ns, 13200099u);
  EXPECT_EQ(results[0].remote_access_latency.count(), 1076u);
  EXPECT_EQ(results[0].miss_latency.Percentile(0.99), 34048u);
  EXPECT_EQ(results[1].completion_ns, 11134608u);
  EXPECT_EQ(results[1].remote_access_latency.count(), 6000u);
  EXPECT_EQ(results[1].miss_latency.Percentile(0.99), 27264u);
  EXPECT_EQ(results[2].completion_ns, 12927907u);
  EXPECT_EQ(results[2].remote_access_latency.count(), 5767u);
  EXPECT_EQ(results[2].miss_latency.Percentile(0.99), 27776u);
  EXPECT_EQ(cluster.host_remote_latency(0).Sum(), 0x1.4e6116p+23);
  EXPECT_EQ(cluster.host_remote_latency(1).Sum(), 0x1.1cdeap+23);
  EXPECT_EQ(cluster.host_remote_latency(2).Sum(), 0x1.52f4f2p+23);
  for (size_t c = 0; c < kIoClassCount; ++c) {
    const ClassGolden& g = classes[c];
    const StageBreakdown::Stage& st = stats.stages.cls[c];
    EXPECT_EQ(stats.class_queue_delay_ewma_ns[c], g.ewma_ns) << "class " << c;
    EXPECT_EQ(stats.class_queue_delay_mean_ns[c], g.mean_ns) << "class " << c;
    EXPECT_EQ(stats.class_sojourn_mean_ns[c], g.sojourn_ns) << "class " << c;
    EXPECT_EQ((std::array<uint64_t, 6>{st.software_ns, st.queue_ns, st.wire_ns,
                                       st.stall_ns, st.service_ns, st.ops}),
              g.stages)
        << "class " << c;
    ASSERT_EQ(stats.host_uplink_classes.size(), g.uplink_ops.size());
    for (size_t h = 0; h < g.uplink_ops.size(); ++h) {
      EXPECT_EQ(stats.host_uplink_classes[h].ops[c], g.uplink_ops[h]);
    }
    ASSERT_EQ(stats.node_downlink_classes.size(), g.downlink_ops.size());
    for (size_t n = 0; n < g.downlink_ops.size(); ++n) {
      EXPECT_EQ(stats.node_downlink_classes[n].ops[c], g.downlink_ops[n]);
    }
  }
  EXPECT_EQ(cluster.windows_run(), 1u) << "one shard runs one window";
}

// --- shards>1 determinism ----------------------------------------------------

struct ShardedFingerprint {
  std::vector<std::map<std::string, uint64_t>> host_counters;
  std::vector<SimTimeNs> completions;
  std::vector<uint64_t> p99s;
  std::map<std::string, uint64_t> totals;
  std::vector<uint64_t> node_reads;
  std::vector<uint64_t> node_writes;
  uint64_t fabric_ops = 0;
  uint64_t windows_run = 0;

  bool operator==(const ShardedFingerprint&) const = default;
};

ShardedFingerprint FingerprintSharded(const ClusterConfig& config,
                                      ClusterStats* stats_out = nullptr,
                                      const FaultPlan& plan = {}) {
  Cluster cluster(config);
  FaultInjector::Arm(cluster, plan);
  std::vector<std::unique_ptr<AccessStream>> streams;
  const std::vector<RunResult> results = RunMixed(cluster, 6000, streams);
  ShardedFingerprint fp;
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    fp.host_counters.push_back(cluster.host(h).counters().values());
    fp.completions.push_back(results[h].completion_ns);
    fp.p99s.push_back(cluster.host_remote_latency(h).Percentile(0.99));
  }
  const ClusterStats stats = cluster.Stats();
  fp.totals = stats.totals.values();
  fp.node_reads = stats.node_reads;
  fp.node_writes = stats.node_writes;
  fp.fabric_ops = stats.fabric_ops;
  fp.windows_run = cluster.windows_run();
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  return fp;
}

// Acceptance criterion: same seed + same shard count => bit-identical
// ClusterStats across two runs, with real cross-shard traffic in flight.
TEST(ShardedCluster, SameSeedBitIdenticalAcrossRunsWithMirrors) {
  const ClusterConfig config =
      SmallCluster(4, 4, /*shards=*/2, /*mirror_every=*/3);

  ClusterStats first_stats, second_stats;
  const ShardedFingerprint first = FingerprintSharded(config, &first_stats);
  const ShardedFingerprint second = FingerprintSharded(config, &second_stats);
  EXPECT_TRUE(first == second) << "shards=2 run diverged between executions";
  ExpectStatsEqual(first_stats, second_stats);
  // The run must actually have crossed shards, or the test is vacuous.
  EXPECT_GT(first_stats.totals.Get(counter::kCrossShardSent), 0u);
  EXPECT_GT(first_stats.totals.Get(counter::kCrossShardApplied), 0u);
  EXPECT_LE(first_stats.totals.Get(counter::kCrossShardApplied),
            first_stats.totals.Get(counter::kCrossShardSent));
  EXPECT_GT(first.windows_run, 0u);
}

// Mailbox overflow changes telemetry, never results: a 1-slot ring (all
// spill) must produce the same stats as an ample ring.
TEST(ShardedCluster, OverflowPathIsResultInvariant) {
  ClusterConfig ample = SmallCluster(4, 4, /*shards=*/2, /*mirror_every=*/2);
  ample.mailbox_capacity = 4096;

  ClusterConfig tiny = ample;
  tiny.mailbox_capacity = 1;

  ClusterStats ample_stats, tiny_stats;
  const ShardedFingerprint a = FingerprintSharded(ample, &ample_stats);
  const ShardedFingerprint b = FingerprintSharded(tiny, &tiny_stats);
  EXPECT_TRUE(a == b) << "ring capacity leaked into simulation results";
  ExpectStatsEqual(ample_stats, tiny_stats);
  // With a 1-slot ring and mirrors every 2nd miss, spills must occur
  // (checked indirectly: the identical stats prove delivery happened).
  EXPECT_GT(tiny_stats.totals.Get(counter::kCrossShardApplied), 0u);
}

// Satellite edge case: a failure event scheduled exactly on a window
// boundary (a multiple of window_ns) must fire deterministically and
// identically across runs.
TEST(ShardedCluster, EventExactlyOnWindowBoundaryIsDeterministic) {
  // 6 nodes / 2 shards = 3 donors per shard: with 2-way slab replication
  // a failure still leaves a repair replacement inside the shard.
  const ClusterConfig config =
      SmallCluster(4, 6, /*shards=*/2, /*mirror_every=*/4);

  // Probe the derived window and the run's span, then aim a failure
  // exactly at a window boundary in the middle of the measured phase.
  const SimTimeNs window = FabricLookaheadNs(config.fabric);
  ASSERT_EQ(Cluster(config).window_ns(), window);
  const SimTimeNs boundary = (MidRunTime(config) / window) * window;
  ASSERT_EQ(boundary % window, 0u);
  ASSERT_GT(boundary, 0u);

  FaultPlan plan;
  plan.Crash(/*node=*/1, boundary);
  ClusterStats first_stats, second_stats;
  const ShardedFingerprint first =
      FingerprintSharded(config, &first_stats, plan);
  const ShardedFingerprint second =
      FingerprintSharded(config, &second_stats, plan);
  EXPECT_TRUE(first == second) << "boundary-timed failure diverged";
  ExpectStatsEqual(first_stats, second_stats);
  EXPECT_EQ(first_stats.totals.Get(counter::kNodeFailures), 1u);
  EXPECT_GT(first_stats.totals.Get(counter::kSlabRepairs), 0u);
}

// Satellite edge case: a shard with donor nodes but no hosts still runs
// its scenario events (via the post-barrier catch-up drain) and the whole
// cluster stays deterministic.
TEST(ShardedCluster, DonorOnlyShardFiresScenarioEvents) {
  // Plan: shard 2 owns node 2 and no hosts.
  const ClusterConfig config =
      SmallCluster(2, 4, /*shards=*/3, /*mirror_every=*/2);

  Cluster probe(config);
  ASSERT_EQ(probe.num_shards(), 3u);
  ASSERT_TRUE(probe.plan().shard_hosts[2].empty());
  ASSERT_EQ(probe.plan().shard_nodes[2], (std::vector<uint32_t>{2}));

  // Fail the donor-only shard's node mid-run: no repairs (no home-shard
  // hosts hold slabs there), but the failure itself must land - via the
  // hostless shard's post-barrier catch-up drain.
  FaultPlan plan;
  plan.Crash(/*node=*/2, MidRunTime(config));
  ClusterStats first_stats, second_stats;
  const ShardedFingerprint first =
      FingerprintSharded(config, &first_stats, plan);
  const ShardedFingerprint second =
      FingerprintSharded(config, &second_stats, plan);
  EXPECT_TRUE(first == second);
  ExpectStatsEqual(first_stats, second_stats);
  EXPECT_EQ(first_stats.totals.Get(counter::kNodeFailures), 1u);
  EXPECT_EQ(first_stats.totals.Get(counter::kSlabRepairs), 0u)
      << "nobody maps slabs on a donor-only shard's node";
}

// Satellite edge case: an app whose accesses are all zero-latency local
// hits (footprint fits in frames, no remote traffic) must terminate and
// stay deterministic - the window fast-forward may not wedge on
// same-timestamp steps.
TEST(ShardedCluster, ZeroLatencyLocalOnlyAppsTerminate) {
  const ClusterConfig config = SmallCluster(2, 2, /*shards=*/2);

  auto run_once = [&config] {
    Cluster cluster(config);
    std::vector<std::unique_ptr<AccessStream>> streams;
    std::vector<ClusterAppSpec> specs;
    std::vector<Pid> pids;
    for (size_t h = 0; h < cluster.num_hosts(); ++h) {
      // Tiny resident set: after the first touches, every access is a
      // local hit with zero added latency.
      const Pid pid = cluster.host(h).CreateProcess(64);
      pids.push_back(pid);
      streams.push_back(
          std::make_unique<SequentialStream>(64, /*think_ns=*/0));
      RunConfig run;
      run.total_accesses = 5000;
      run.start_time_ns = 0;  // no warm-up: start at t=0, window index 0
      run.seed = 9 + h;
      specs.push_back({h, pids[h], streams[h].get(), run});
    }
    std::vector<RunResult> results = cluster.Run(std::move(specs));
    return std::pair<std::vector<RunResult>, uint64_t>(std::move(results),
                                                       cluster.windows_run());
  };
  auto [first, first_windows] = run_once();
  auto [second, second_windows] = run_once();
  ASSERT_EQ(first.size(), 2u);
  for (const RunResult& result : first) {
    EXPECT_TRUE(result.finished);
    EXPECT_EQ(result.accesses, 5000u);
  }
  ExpectResultsEqual(first, second);
  EXPECT_EQ(first_windows, second_windows);
}

// --- what every shard count supports -----------------------------------------

// A correlated crash armed through FaultInjector spans both shards: each
// shard loses two of its three donors at one instant. Every member must
// fail before any repair runs - a repair between the two failures would
// re-copy a slab off the second node before it died - so slabs replicated
// on exactly a failed pair are lost on both shards' hosts. Two single
// crashes, one per shard, always leave a repair source and lose nothing.
TEST(ShardedCluster, CrashGroupSpanningShardsFailsEveryMemberBeforeRepair) {
  // Plan: shard 0 = host 0 + nodes {0, 2, 4}; shard 1 = host 1 + nodes
  // {1, 3, 5}.
  const auto tags_lost = [](const FaultPlan& plan) {
    ClusterConfig config = SmallCluster(2, 6, /*shards=*/2);
    config.host.host_agent.replicas = 2;
    Cluster cluster(config);
    FaultInjector::Arm(cluster, plan);
    const SwapSlot probe_slots = 2048;
    const auto probe_tag = [](SwapSlot slot) {
      return slot * 2654435761u + 1;
    };
    Rng tag_rng(7);
    for (size_t h = 0; h < cluster.num_hosts(); ++h) {
      for (SwapSlot slot = 0; slot < probe_slots; ++slot) {
        cluster.host(h).host_agent()->WriteTag(slot, probe_tag(slot),
                                               /*now=*/0, tag_rng);
      }
    }
    cluster.RunEventsUntil(2 * kNsPerMs);  // crashes + repair fire
    std::vector<size_t> lost(cluster.num_hosts(), 0);
    for (size_t h = 0; h < cluster.num_hosts(); ++h) {
      HostAgent* agent = cluster.host(h).host_agent();
      for (SwapSlot slot = 0; slot < probe_slots; ++slot) {
        if (agent->ReadTag(slot) !=
            std::optional<uint64_t>(probe_tag(slot))) {
          ++lost[h];
        }
      }
    }
    const ClusterStats stats = cluster.Stats();
    size_t failed = 0;
    for (size_t n = 0; n < cluster.num_nodes(); ++n) {
      failed += cluster.node(n).failed() ? 1 : 0;
    }
    EXPECT_EQ(stats.totals.Get(counter::kNodeFailures), failed);
    EXPECT_GT(stats.totals.Get(counter::kSlabRepairs), 0u);
    return lost;
  };

  FaultPlan group;
  group.CrashGroup({0, 2, 1, 3}, kNsPerMs);
  const std::vector<size_t> group_lost = tags_lost(group);
  EXPECT_GT(group_lost[0], 0u) << "shard 0's members must fail together";
  EXPECT_GT(group_lost[1], 0u) << "shard 1's members must fail together";

  FaultPlan singles;
  singles.Crash(0, kNsPerMs).Crash(1, kNsPerMs);
  EXPECT_EQ(tags_lost(singles), (std::vector<size_t>{0, 0}));
}

// The same cross-shard crash group armed mid-run is part of the
// deterministic schedule: same seed + same shard count => identical runs.
TEST(ShardedCluster, CrashGroupAcrossShardsIsDeterministic) {
  const ClusterConfig config =
      SmallCluster(4, 6, /*shards=*/2, /*mirror_every=*/4);
  FaultPlan plan;
  plan.CrashGroup({2, 3}, MidRunTime(config));  // one node on each shard

  ClusterStats first_stats, second_stats;
  const ShardedFingerprint first =
      FingerprintSharded(config, &first_stats, plan);
  const ShardedFingerprint second =
      FingerprintSharded(config, &second_stats, plan);
  EXPECT_TRUE(first == second) << "cross-shard crash group diverged";
  ExpectStatsEqual(first_stats, second_stats);
  EXPECT_EQ(first_stats.totals.Get(counter::kNodeFailures), 2u);
  EXPECT_GT(first_stats.totals.Get(counter::kSlabRepairs), 0u);
}

TEST(ShardedCluster, DumpStatsReportsTheMergedShards) {
  const ClusterConfig config =
      SmallCluster(4, 4, /*shards=*/2, /*mirror_every=*/3);
  const auto dump = [&config] {
    Cluster cluster(config);
    std::vector<std::unique_ptr<AccessStream>> streams;
    RunMixed(cluster, 3000, streams);
    std::ostringstream out;
    cluster.DumpStats(out);
    // The counter table carries the merged cross-shard totals.
    const uint64_t applied =
        cluster.Stats().totals.Get(counter::kCrossShardApplied);
    EXPECT_GT(applied, 0u);
    const size_t row =
        out.str().find(CounterName(CounterId::kCrossShardApplied));
    EXPECT_NE(row, std::string::npos);
    EXPECT_NE(out.str().find(std::to_string(applied), row),
              std::string::npos);
    return out.str();
  };
  const std::string first = dump();
  EXPECT_EQ(first.rfind("cluster: 4 hosts, 4 nodes", 0), 0u) << first;
  EXPECT_EQ(first, dump()) << "DumpStats must be deterministic";
}

// --- guard rails -------------------------------------------------------------

TEST(ShardedCluster, RejectsTraceRecording) {
  ClusterConfig config = SmallCluster(2, 2, /*shards=*/2);
  config.trace.enabled = true;
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
}

TEST(ShardedCluster, RejectsStatsSampler) {
  ClusterConfig config = SmallCluster(2, 2, /*shards=*/2);
  config.sampler.enabled = true;
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
  config.shards = 1;
  EXPECT_NO_THROW(Cluster{config});
}

TEST(ShardedCluster, RejectsZeroShards) {
  EXPECT_THROW(Cluster{SmallCluster(2, 2, /*shards=*/0)},
               std::invalid_argument);
}

TEST(ShardedCluster, AddHostNeedsOneShard) {
  Cluster cluster(SmallCluster(2, 2, /*shards=*/2));
  EXPECT_THROW(cluster.AddHost(), std::logic_error);
  EXPECT_EQ(cluster.num_hosts(), 2u);
}

}  // namespace
}  // namespace leap
