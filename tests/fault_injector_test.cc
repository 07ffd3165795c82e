// FaultPlan / FaultInjector tests: builder validation (value errors throw
// at the call site), build-time expansion of GrayRamp and Flap into the
// five primitive kinds, target-id validation against a concrete cluster,
// and the two determinism contracts the injector promises - same seed +
// same plan is bit-identical, and an empty plan is byte-identical to no
// plan at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/fault_injector.h"
#include "src/runtime/cluster.h"
#include "src/runtime/presets.h"
#include "src/workload/cluster_mix.h"

namespace leap {
namespace {

constexpr size_t kFootprint = 2048;

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

struct MixedRun {
  std::vector<RunResult> results;
  std::vector<std::unique_ptr<AccessStream>> streams;
  SimTimeNs run_start = 0;  // absolute; completions are elapsed from here
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
  out.run_start = warm_end + 10 * kNsPerMs;
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    RunConfig run;
    run.total_accesses = accesses_per_host;
    run.start_time_ns = out.run_start;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], out.streams[h].get(), run});
  }
  out.results = cluster.Run(std::move(specs));
  return out;
}

// --- builder validation ------------------------------------------------------

TEST(FaultPlan, BuildersRejectValueErrorsEagerly) {
  FaultPlan plan;
  EXPECT_THROW(plan.CrashGroup({}, kNsPerMs), std::invalid_argument);
  EXPECT_THROW(plan.Gray(0, /*stretch=*/0.0, kNsPerMs),
               std::invalid_argument);
  EXPECT_THROW(plan.Gray(0, /*stretch=*/-2.0, kNsPerMs),
               std::invalid_argument);
  EXPECT_THROW(plan.Gray(0, 8.0, /*at=*/kNsPerMs, /*until=*/kNsPerMs),
               std::invalid_argument);
  EXPECT_THROW(plan.GrayRamp(0, 0.0, 8.0, kNsPerMs, 2 * kNsPerMs),
               std::invalid_argument);
  EXPECT_THROW(plan.GrayRamp(0, 2.0, 8.0, 2 * kNsPerMs, kNsPerMs),
               std::invalid_argument);
  EXPECT_THROW(plan.GrayRamp(0, 2.0, 8.0, kNsPerMs, 2 * kNsPerMs,
                             /*steps=*/0),
               std::invalid_argument);
  EXPECT_THROW(plan.DelaySpike(0, /*extra_ns=*/0, kNsPerMs),
               std::invalid_argument);
  EXPECT_THROW(plan.DelaySpike(0, kNsPerUs, /*at=*/2 * kNsPerMs,
                               /*until=*/kNsPerMs),
               std::invalid_argument);
  EXPECT_THROW(plan.Flap(0, /*cycles=*/0, kNsPerMs, kNsPerMs, kNsPerMs),
               std::invalid_argument);
  EXPECT_THROW(plan.Flap(0, 2, kNsPerMs, /*down_ns=*/0, kNsPerMs),
               std::invalid_argument);
  EXPECT_THROW(plan.Flap(0, 2, kNsPerMs, kNsPerMs, /*up_ns=*/0),
               std::invalid_argument);
  // Every rejected call must have left the plan untouched.
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, ValidateRejectsUnknownNodeIds) {
  FaultPlan plan;
  plan.Crash(7, kNsPerMs);
  EXPECT_THROW(plan.Validate(/*node_count=*/2), std::out_of_range);
  plan = FaultPlan{};
  plan.CrashGroup({0, 1, 5}, kNsPerMs);
  EXPECT_THROW(plan.Validate(/*node_count=*/4), std::out_of_range);
  plan.Validate(/*node_count=*/6);  // all ids in range: no throw
}

TEST(FaultInjector, ArmRevalidatesAgainstTheConcreteCluster) {
  Cluster cluster(SmallCluster(1, 2));
  FaultPlan plan;
  plan.Gray(3, 8.0, kNsPerMs);  // node 3 of a 2-node cluster
  EXPECT_THROW(FaultInjector::Arm(cluster, plan), std::out_of_range);
}

// --- build-time expansion ----------------------------------------------------

TEST(FaultPlan, GrayRampExpandsIntoStepsPlusRestore) {
  FaultPlan plan;
  const SimTimeNs at = 10 * kNsPerMs;
  const SimTimeNs until = 50 * kNsPerMs;
  plan.GrayRamp(1, /*from=*/2.0, /*to=*/16.0, at, until, /*steps=*/4);
  ASSERT_EQ(plan.size(), 5u);  // 4 steps + the restore event
  const auto& events = plan.events();
  for (const FaultEvent& ev : events) {
    EXPECT_EQ(ev.kind, FaultKind::kGray);
    ASSERT_EQ(ev.nodes.size(), 1u);
    EXPECT_EQ(ev.nodes[0], 1u);
  }
  EXPECT_EQ(events.front().at, at);
  EXPECT_DOUBLE_EQ(events.front().stretch, 2.0);
  EXPECT_DOUBLE_EQ(events[3].stretch, 16.0);  // last step hits `to`
  // The restore event clears the stretch exactly at `until`.
  EXPECT_EQ(events.back().at, until);
  EXPECT_DOUBLE_EQ(events.back().stretch, 1.0);
  // Steps ascend in both time and stretch (a ramp, not a shuffle).
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GT(events[i].at, events[i - 1].at);
    EXPECT_GT(events[i].stretch, events[i - 1].stretch);
  }
}

TEST(FaultPlan, FlapExpandsIntoCrashRecoverPairs) {
  FaultPlan plan;
  const SimTimeNs at = 5 * kNsPerMs;
  const SimTimeNs down = 2 * kNsPerMs;
  const SimTimeNs up = 3 * kNsPerMs;
  plan.Flap(2, /*cycles=*/3, at, down, up);
  ASSERT_EQ(plan.size(), 6u);
  const auto& events = plan.events();
  for (size_t cycle = 0; cycle < 3; ++cycle) {
    const FaultEvent& crash = events[cycle * 2];
    const FaultEvent& recover = events[cycle * 2 + 1];
    EXPECT_EQ(crash.kind, FaultKind::kCrash);
    EXPECT_EQ(recover.kind, FaultKind::kRecover);
    EXPECT_EQ(crash.nodes[0], 2u);
    EXPECT_EQ(recover.nodes[0], 2u);
    EXPECT_EQ(crash.at, at + cycle * (down + up));
    EXPECT_EQ(recover.at, crash.at + down);
  }
}

// --- determinism under injected faults --------------------------------------

struct ClusterFingerprint {
  std::vector<std::map<std::string, uint64_t>> host_counters;
  std::vector<SimTimeNs> completions;
  std::vector<uint64_t> p99s;
  uint64_t fabric_ops = 0;
  std::vector<uint64_t> node_reads;
  std::vector<size_t> node_slabs;
  std::vector<NodeHealth> health;
  std::map<std::string, uint64_t> totals;  // includes scenario counters
  uint64_t node_failures = 0;
  uint64_t gray_events = 0;

  bool operator==(const ClusterFingerprint&) const = default;
};

ClusterFingerprint FingerprintWithPlan(const ClusterConfig& config,
                                       const FaultPlan* plan,
                                       size_t accesses) {
  Cluster cluster(config);
  if (plan != nullptr) {
    FaultInjector::Arm(cluster, *plan);
  }
  const MixedRun run = RunMixed(cluster, accesses);
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
  fp.health = stats.node_health_state;
  fp.totals = stats.totals.values();
  fp.node_failures = stats.totals.Get(counter::kNodeFailures);
  fp.gray_events = stats.totals.Get(counter::kGrayFaultEvents);
  return fp;
}

// Same seed + same active plan (crash, gray, flap, spike all firing, with
// the full mitigation stack enabled) must be bit-identical: mitigation
// decisions are driven off deterministic state only.
TEST(FaultInjector, SameSeedSamePlanBitIdentical) {
  ClusterConfig config = SmallCluster(3, 4);
  config.resilience.enabled = true;
  config.health_monitor_enabled = true;
  config.health.min_samples = 16;
  // Calibrate the injection window off an unfaulted run (fault times are
  // absolute; the workload's span depends on config and scale).
  SimTimeNs run_start = 0;
  SimTimeNs span = 0;
  {
    Cluster calib(config);
    const MixedRun c = RunMixed(calib, /*accesses_per_host=*/8000);
    run_start = c.run_start;
    for (const RunResult& r : c.results) {
      span = std::max(span, r.completion_ns);
    }
  }
  ASSERT_GT(span, 0u);
  FaultPlan plan;
  plan.Gray(1, 16.0, run_start + span / 5)
      .Crash(3, run_start + span / 3)
      .Flap(2, /*cycles=*/2, run_start + span / 2, span / 20, span / 20)
      .DelaySpike(0, 100 * kNsPerUs, run_start + span / 4,
                  run_start + span / 3);
  const ClusterFingerprint first =
      FingerprintWithPlan(config, &plan, /*accesses=*/8000);
  const ClusterFingerprint second =
      FingerprintWithPlan(config, &plan, /*accesses=*/8000);
  EXPECT_EQ(first.host_counters, second.host_counters);
  EXPECT_TRUE(first == second) << "fault-injected cluster state diverged";
  // Vacuous-run guards: the workload ran and the plan actually fired.
  for (const auto& counters : first.host_counters) {
    EXPECT_GT(counters.at("remote_reads"), 0u);
  }
  EXPECT_GE(first.node_failures, 3u);  // the crash + 2 flap cycles
  EXPECT_GE(first.gray_events, 1u);
}

// An armed-but-empty plan must change nothing: byte-identical stats to a
// run with no injector involvement at all.
TEST(FaultInjector, EmptyPlanIsIdenticalToNoPlan) {
  const ClusterConfig config = SmallCluster(2, 2);
  const FaultPlan empty;
  const ClusterFingerprint with_empty =
      FingerprintWithPlan(config, &empty, /*accesses=*/6000);
  const ClusterFingerprint without =
      FingerprintWithPlan(config, nullptr, /*accesses=*/6000);
  EXPECT_TRUE(with_empty == without)
      << "arming an empty FaultPlan perturbed the run";
}

// A correlated crash of a whole replica domain loses data; the surviving
// probe-tag count quantifies it. A single-node crash must lose nothing:
// the second replica is the repair source.
TEST(FaultInjector, CorrelatedCrashLosesDataSingleCrashDoesNot) {
  auto tags_lost_with_group = [](std::vector<uint32_t> group) {
    // Replicas=2 across 4 nodes: a single crash always leaves a repair
    // source, while a two-node correlated domain strands every slab whose
    // replica set was exactly that pair (2048 slots = 32 slabs, plenty of
    // pairs land on {1, 2} under the deterministic placement).
    ClusterConfig config = SmallCluster(1, 4);
    config.host.host_agent.replicas = 2;
    Cluster cluster(config);
    FaultPlan plan;
    if (group.size() == 1) {
      plan.Crash(group[0], kNsPerMs);
    } else {
      plan.CrashGroup(std::move(group), kNsPerMs);
    }
    FaultInjector::Arm(cluster, plan);

    HostAgent* agent = cluster.host(0).host_agent();
    Rng tag_rng(7);
    const SwapSlot probe_slots = 2048;
    const auto probe_tag = [](SwapSlot slot) {
      return slot * 2654435761u + 1;
    };
    for (SwapSlot slot = 0; slot < probe_slots; ++slot) {
      agent->WriteTag(slot, probe_tag(slot), /*now=*/0, tag_rng);
    }
    cluster.RunEventsUntil(2 * kNsPerMs);  // crash + repair fire
    size_t lost = 0;
    for (SwapSlot slot = 0; slot < probe_slots; ++slot) {
      if (agent->ReadTag(slot) != std::optional<uint64_t>(probe_tag(slot))) {
        ++lost;
      }
    }
    return lost;
  };
  EXPECT_EQ(tags_lost_with_group({1}), 0u);
  EXPECT_GT(tags_lost_with_group({1, 2}), 0u);
}

}  // namespace
}  // namespace leap
