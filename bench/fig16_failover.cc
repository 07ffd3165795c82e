// Figure 16 (extension): gray failure and failover tails in a
// disaggregated cluster. The paper evaluates Leap on a healthy testbed;
// this bench asks what production asks - what happens to demand-read p99
// when a memory node goes gray (answers everything, an order of magnitude
// slow), and how fast does detection + mitigation claw it back?
//
// Three variants over the same 16-host/4-node cluster and the same fault
// timeline:
//   baseline          no faults, mitigation off - the healthy reference
//   gray_unmitigated  node 1 goes gray mid-run (downlink serialization
//                     stretched), mitigation off; the health monitor runs
//                     in observe-only mode so the detection window is
//                     still measured
//   gray_mitigated    same fault, full mitigation on: gray avoidance
//                     reroutes demand reads to healthy replicas, hedged
//                     reads race the stragglers, deadline retries cap the
//                     worst case
//
// Headline: unmitigated gray p99 collapses (>= 3x over mitigated is the
// acceptance bar); mitigated p99 lands back near baseline, with the
// monitor's detection delay reported. A correlated-failure sweep rides
// along: crash a 1-node then a 2-node failure domain (replicas = 2, so
// the 2-node domain takes out whole replica sets - those slabs are
// remapped with NO surviving source, so the signature is slab repairs
// that produce no page copies: the data is gone until rewritten).
//
// Usage: fig16_failover [--smoke] [--trace[=path]] [--timeseries[=path]]
//                       [output.json]
//   --smoke       tiny configuration for CI (4 hosts, small footprints)
//   --trace       flight-record the gray_mitigated variant and export a
//                 chrome://tracing JSON (default BENCH_failover.trace.json):
//                 the gray node's health track makes the detection window
//                 visible as the gap between the gray_set instant and the
//                 start of the monitor's "gray" span
//   --timeseries  sample node health/EWMAs/windowed demand p99 on the
//                 gray_mitigated run to JSONL
//   output        JSON (default BENCH_failover.json)
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/fault_injector.h"
#include "src/runtime/cluster.h"
#include "src/stats/table.h"

namespace leap {
namespace {

struct BenchGeometry {
  size_t hosts = 16;
  size_t nodes = 4;
  size_t footprint_pages = 4096;
  size_t accesses_per_host = 20000;
  size_t slab_pages = 256;
  double gray_stretch = 16.0;
  // Resilience knobs scale with cluster load: the deadline must clear the
  // healthy-but-loaded tail by a wide margin, or the retries meant to cut
  // the gray tail become a self-inflicted retry storm (each timeout adds
  // load to the surviving nodes, pushing more reads past the deadline).
  SimTimeNs read_deadline_ns = 50 * kNsPerUs;
  SimTimeNs hedge_floor_ns = 10 * kNsPerUs;
  SimTimeNs retry_backoff_ns = 5 * kNsPerUs;
  uint32_t max_read_retries = 3;
  // Health-monitor pacing: smoke's demand misses are sparse, so it judges
  // off fewer samples with a heavier newest-sample weight; the full config
  // has 10x the sample flow and keeps the calmer library defaults (a
  // twitchy EWMA at 16 hosts false-positives healthy-but-loaded nodes).
  uint64_t health_min_samples = 32;
  double health_ewma_alpha = 0.125;
};

// A 128x serialization stretch is squarely in gray-failure territory (a
// NIC negotiated down, a flaky cable retransmitting): deep enough that
// the gray node's demand lane saturates and its queue grows for the rest
// of the run - the paper-style "limping, not dead" node. The 16-host
// config runs ~10x the smoke load, so its healthy tail sits higher and
// the deadline/hedge thresholds scale up with it.
BenchGeometry FullGeometry() {
  return {16,  8,   4096, 20000, 256, 128.0, 250 * kNsPerUs, 50 * kNsPerUs,
          25 * kNsPerUs, 2, 32, 0.125};
}

// Smoke keeps 4 nodes: outlier detection is relative (EWMA vs median of
// EWMAs), and with fewer than 3 peers a single slow node cannot score
// past the suspect threshold.
BenchGeometry SmokeGeometry() {
  return {4, 4, 1024, 4000, 64, 128.0, 50 * kNsPerUs, 10 * kNsPerUs,
          5 * kNsPerUs, 3, 16, 0.25};
}

ClusterConfig MakeConfig(const BenchGeometry& geo, bool mitigation,
                         bool monitor) {
  ClusterConfig config;
  config.hosts = geo.hosts;
  config.nodes = geo.nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.footprint_pages, /*seed=*/42);
  config.host.host_agent.slab_pages = geo.slab_pages;
  config.placement = PlacementPolicy::kPowerOfTwo;
  config.seed = 91;
  // Demand-priority link scheduling (fig15's QoS work) is the table
  // stakes here: under FIFO a saturated gray downlink drags every host's
  // uplink horizon (head-of-line coupling), so ALL reads slow down and no
  // replica choice can dodge the damage. The QoS lane contains the blast
  // radius to ops actually targeting the gray node; health-driven
  // rerouting + hedging then cut the remaining demand tail.
  config.fabric.sched.kind = LinkSchedulerKind::kDemandPriority;
  config.health_monitor_enabled = monitor;
  config.resilience.enabled = mitigation;
  // Geometry-scaled (see BenchGeometry): the deadline and hedge floor sit
  // comfortably above that configuration's healthy p99 while still
  // cutting the gray tail hard.
  config.resilience.read_deadline_ns = geo.read_deadline_ns;
  config.resilience.max_read_retries = geo.max_read_retries;
  config.resilience.retry_backoff_ns = geo.retry_backoff_ns;
  config.resilience.hedge_floor_ns = geo.hedge_floor_ns;
  config.health.min_samples = geo.health_min_samples;
  config.health.ewma_alpha = geo.health_ewma_alpha;
  return config;
}

constexpr uint32_t kGrayNode = 1;

struct VariantResult {
  std::string name;
  bench::RunSummary run;
  SimTimeNs run_start_ns = 0;
  SimTimeNs detection_delay_ns = 0;  // 0 = no gray detected / no monitor
  uint64_t tags_written = 0;         // durability probe (correlated sweep)
  uint64_t tags_lost = 0;            // probe tags unreadable after the run
  bool exported = true;

  // Headline series: demand-miss latency (a faulting process blocked on
  // the read) - the metric mitigation targets. The all-remote-access
  // histogram would dilute it with hits on prefetched pages.
  uint64_t P50() const { return run.miss_latency.Percentile(0.5); }
  uint64_t P99() const { return run.miss_latency.Percentile(0.99); }
};

// tag_slots > 0 plants a durability probe: host 0 writes a content tag
// per slot before the run, and every tag is read back after it. A tag is
// lost only when every replica holding it died before repair could copy
// it - the direct measure of correlated-failure data loss. `obs` non-null
// marks the headline run: it records and exports what the command line
// asked for and dumps its stats.
VariantResult RunVariant(const BenchGeometry& geo, const std::string& name,
                         const FaultPlan& plan, bool mitigation, bool monitor,
                         SimTimeNs gray_inject_ns, size_t tag_slots = 0,
                         const bench::BenchArgs* obs = nullptr) {
  ClusterConfig config = MakeConfig(geo, mitigation, monitor);
  if (obs != nullptr) {
    bench::EnableObservability(config, *obs);
    // Big enough that the smoke run keeps every event from before the
    // injection to the end (the gray_set instant must survive in the ring
    // for the detection window to be visible in the export).
    config.trace.capacity = size_t{1} << 18;
  }
  Cluster cluster(config);
  FaultInjector::Arm(cluster, plan);

  std::vector<bench::ClusterApp> apps =
      bench::ClusterMixApps(geo.hosts, geo.footprint_pages);
  const SimTimeNs warm_end = bench::WarmApps(cluster, apps);
  VariantResult out;
  out.name = name;
  out.run_start_ns = warm_end + bench::kRunGapNs;
  const auto probe_tag = [](SwapSlot slot) { return slot * 2654435761u + 1; };
  HostAgent* agent = cluster.host(0).host_agent();
  Rng tag_rng(7);
  for (SwapSlot slot = 0; slot < tag_slots; ++slot) {
    agent->WriteTag(slot, probe_tag(slot), warm_end, tag_rng);
  }
  out.tags_written = tag_slots;
  out.run = bench::Summarize(
      cluster, bench::RunApps(cluster, apps, geo.accesses_per_host, warm_end));
  for (SwapSlot slot = 0; slot < tag_slots; ++slot) {
    if (agent->ReadTag(slot) != std::optional<uint64_t>(probe_tag(slot))) {
      ++out.tags_lost;
    }
  }
  const HealthMonitor* health = cluster.health_monitor(kGrayNode);
  if (health != nullptr && gray_inject_ns > 0) {
    // First gray mark AT OR AFTER injection: a transient false positive
    // earlier in the run must not read as instant detection.
    const SimTimeNs first_gray =
        health->FirstGrayAtOrAfterNs(kGrayNode, gray_inject_ns);
    if (first_gray >= gray_inject_ns && first_gray > 0) {
      out.detection_delay_ns = first_gray - gray_inject_ns;
    }
  }
  if (obs != nullptr) {
    out.exported = bench::ExportObservability(cluster, *obs);
  }
  return out;
}

struct CorrelatedResult {
  std::vector<uint32_t> group;
  VariantResult variant;
};

CorrelatedResult RunCorrelated(const BenchGeometry& geo,
                               std::vector<uint32_t> group, SimTimeNs crash_at,
                               SimTimeNs recover_at) {
  FaultPlan plan;
  plan.CrashGroup(group, crash_at);
  for (const uint32_t node : group) {
    plan.Recover(node, recover_at);
  }
  // Probe 16 slabs' worth of tags so a meaningful number of replica sets
  // land fully inside the 2-node failure domain.
  const size_t tag_slots = 16 * geo.slab_pages;
  return {std::move(group),
          RunVariant(geo, "correlated", plan, /*mitigation=*/true,
                     /*monitor=*/true, /*gray_inject_ns=*/0, tag_slots)};
}

std::string VariantRow(const VariantResult& v) {
  const Counters& totals = v.run.stats.totals;
  return bench::JsonObject()
      .Str("name", v.name)
      .Int("p50_remote_ns", v.P50())
      .Int("p99_remote_ns", v.P99())
      .Int("detection_delay_ns", v.detection_delay_ns)
      .Int("hedge_fabric_ops", v.run.stats.ClassOps(IoClass::kHedge))
      .Int("max_completion_ns", v.run.max_completion_ns)
      .Obj("resilience",
           bench::ResilienceJson(totals)
               .Int("gray_fault_events", totals.Get(counter::kGrayFaultEvents))
               .Int("delay_spike_events",
                    totals.Get(counter::kDelaySpikeEvents)))
      .Line();
}

std::string CorrelatedRow(const CorrelatedResult& c) {
  std::string group;
  for (const uint32_t node : c.group) {
    group += (group.empty() ? "" : ", ") + std::to_string(node);
  }
  const VariantResult& v = c.variant;
  return bench::JsonObject()
      .Raw("group", "[" + group + "]")
      .Int("reads_lost", v.run.Total(counter::kRemoteReadsLost))
      .Int("slab_repairs", v.run.Total(counter::kSlabRepairs))
      .Int("repair_page_copies", v.run.Total(counter::kRepairPageCopies))
      .Int("read_failovers", v.run.Total(counter::kRemoteFailovers))
      .Int("probe_tags_written", v.tags_written)
      .Int("probe_tags_lost", v.tags_lost)
      .Int("p99_remote_ns", v.P99())
      .Line();
}

int Run(const bench::BenchArgs& args) {
  const BenchGeometry geo = args.smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 16 (extension): gray failure + failover tails",
      "the paper's testbed is healthy; production is not - a gray memory "
      "node (answers everything, slowly) collapses demand-read p99 unless "
      "detection + hedged/retried reads steer around it");

  // Baseline first: its span fixes the injection time for both gray
  // variants (20% into the measured run, so ~80% of samples see the
  // fault).
  const FaultPlan no_faults;
  const VariantResult baseline =
      RunVariant(geo, "baseline", no_faults, /*mitigation=*/false,
                 /*monitor=*/false, /*gray_inject_ns=*/0);
  // completion_ns is elapsed time from the run start, so the healthy
  // span IS the max completion; faults are placed at fractions of it.
  const SimTimeNs span = baseline.run.max_completion_ns;
  const SimTimeNs inject = baseline.run_start_ns + span / 5;

  FaultPlan gray_plan;
  gray_plan.Gray(kGrayNode, geo.gray_stretch, inject, /*until=*/0);

  const VariantResult unmitigated =
      RunVariant(geo, "gray_unmitigated", gray_plan, /*mitigation=*/false,
                 /*monitor=*/true, inject);
  // The mitigated variant is the one worth watching: its trace shows the
  // gray_set instant, the monitor's suspect->gray track, and the reroute/
  // hedge/retry instants clawing the tail back.
  const VariantResult mitigated =
      RunVariant(geo, "gray_mitigated", gray_plan, /*mitigation=*/true,
                 /*monitor=*/true, inject, /*tag_slots=*/0, &args);

  TextTable table;
  table.SetHeader({"variant", "p50 remote(us)", "p99 remote(us)",
                   "detect delay(ms)", "rerouted", "hedges", "retries"});
  std::vector<std::string> variant_rows;
  for (const VariantResult* v : {&baseline, &unmitigated, &mitigated}) {
    variant_rows.push_back(VariantRow(*v));
    char p50[32], p99[32], det[32];
    std::snprintf(p50, sizeof(p50), "%.2f", ToUs(v->P50()));
    std::snprintf(p99, sizeof(p99), "%.2f", ToUs(v->P99()));
    std::snprintf(det, sizeof(det), "%.3f",
                  static_cast<double>(v->detection_delay_ns) / kNsPerMs);
    table.AddRow({v->name, p50, p99, det,
                  std::to_string(v->run.Total(counter::kReadsRerouted)),
                  std::to_string(v->run.Total(counter::kHedgedReads)),
                  std::to_string(v->run.Total(counter::kReadRetries))});
  }
  std::printf("%s\n", table.Render().c_str());

  const double improvement =
      mitigated.P99() == 0 ? 0.0
                           : static_cast<double>(unmitigated.P99()) /
                                 static_cast<double>(mitigated.P99());
  std::printf("gray-node demand p99: unmitigated %.2f us vs mitigated "
              "%.2f us -> %.2fx improvement (acceptance bar: >= 3x)\n",
              ToUs(unmitigated.P99()), ToUs(mitigated.P99()), improvement);
  std::printf("detection window: gray marked %.3f ms after injection\n\n",
              static_cast<double>(mitigated.detection_delay_ns) / kNsPerMs);

  // Correlated-failure sweep: a 1-node domain loses nothing (repair
  // re-replicates every slab from its survivor); a 2-node domain with
  // replicas=2 takes out whole replica sets - those slabs are remapped
  // with no source, so repair_page_copies falls short of what the repair
  // count implies (the missing copies ARE the lost data).
  const SimTimeNs crash_at = baseline.run_start_ns + span / 3;
  const SimTimeNs recover_at = baseline.run_start_ns + 2 * span / 3;
  std::vector<std::string> correlated_rows;
  for (std::vector<uint32_t> group : {std::vector<uint32_t>{1}, {1, 2}}) {
    const CorrelatedResult c =
        RunCorrelated(geo, std::move(group), crash_at, recover_at);
    correlated_rows.push_back(CorrelatedRow(c));
    const bench::RunSummary& r = c.variant.run;
    std::printf("correlated crash of %zu node(s): slab_repairs %llu, "
                "repair_copies %llu, probe tags lost %llu/%llu, "
                "reads_lost %llu, p99 %.2f us\n",
                c.group.size(),
                static_cast<unsigned long long>(
                    r.Total(counter::kSlabRepairs)),
                static_cast<unsigned long long>(
                    r.Total(counter::kRepairPageCopies)),
                static_cast<unsigned long long>(c.variant.tags_lost),
                static_cast<unsigned long long>(c.variant.tags_written),
                static_cast<unsigned long long>(
                    r.Total(counter::kRemoteReadsLost)),
                ToUs(c.variant.P99()));
  }
  std::printf("\n");

  bench::JsonObject doc = bench::BenchJson(
      args.smoke, {"fig16_failover", /*seed=*/91, geo.hosts, geo.nodes,
                   "demand_priority",
                   PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
  doc.Obj("geometry", bench::JsonObject()
                          .Int("hosts", geo.hosts)
                          .Int("nodes", geo.nodes)
                          .Int("footprint_pages", geo.footprint_pages)
                          .Int("accesses_per_host", geo.accesses_per_host)
                          .Int("slab_pages", geo.slab_pages))
      .Obj("gray_fault", bench::JsonObject()
                             .Int("node", kGrayNode)
                             .Num("stretch", geo.gray_stretch, 1)
                             .Int("inject_ns", inject))
      .Raw("variants", bench::JsonRows(variant_rows))
      .Num("p99_improvement", improvement, 2)
      .Raw("correlated_failures", bench::JsonRows(correlated_rows));
  const bool written = bench::WriteJsonFile(args.json_path, doc);
  return written && mitigated.exported ? 0 : 1;
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  return leap::Run(
      leap::bench::ParseBenchArgs(argc, argv, "BENCH_failover.json"));
}
