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
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/fault_injector.h"
#include "src/runtime/cluster.h"
#include "src/stats/table.h"
#include "src/workload/cluster_mix.h"

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
  uint64_t p50_remote_ns = 0;
  uint64_t p99_remote_ns = 0;
  SimTimeNs run_start_ns = 0;
  SimTimeNs max_completion_ns = 0;
  SimTimeNs detection_delay_ns = 0;  // 0 = no gray detected / no monitor
  uint64_t hedge_ops = 0;            // kHedge class ops on the fabric
  uint64_t tags_written = 0;         // durability probe (correlated sweep)
  uint64_t tags_lost = 0;            // probe tags unreadable after the run
  Counters totals;
};

// Per-variant observability: all off by default; the headline variant gets
// whatever the command line asked for. Strictly additive - enabling any of
// these changes no measured number (pinned by obs_trace_test).
struct ObsOptions {
  std::string trace_path;       // non-empty = flight-record + export
  std::string timeseries_path;  // non-empty = sample + write JSONL
  bool dump = false;            // human-readable stats dump to stdout
};

// tag_slots > 0 plants a durability probe: host 0 writes a content tag
// per slot before the run, and every tag is read back after it. A tag is
// lost only when every replica holding it died before repair could copy
// it - the direct measure of correlated-failure data loss.
VariantResult RunVariant(const BenchGeometry& geo, const std::string& name,
                         const FaultPlan& plan, bool mitigation, bool monitor,
                         SimTimeNs gray_inject_ns, size_t tag_slots = 0,
                         const ObsOptions& obs = {}) {
  ClusterConfig config = MakeConfig(geo, mitigation, monitor);
  if (!obs.trace_path.empty()) {
    config.trace.enabled = true;
    // Big enough that the smoke run keeps every event from before the
    // injection to the end (the gray_set instant must survive in the ring
    // for the detection window to be visible in the export).
    config.trace.capacity = size_t{1} << 18;
  }
  config.sampler.enabled = !obs.timeseries_path.empty();
  Cluster cluster(config);
  FaultInjector::Arm(cluster, plan);

  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<ClusterAppSpec> specs;
  std::vector<Pid> pids;
  SimTimeNs warm_end = 0;
  for (size_t h = 0; h < geo.hosts; ++h) {
    const Pid pid = cluster.host(h).CreateProcess(geo.footprint_pages / 2);
    pids.push_back(pid);
    warm_end = WarmUp(cluster.host(h), pid, geo.footprint_pages, warm_end);
    streams.push_back(MakeClusterMixStream(h, geo.footprint_pages));
  }
  VariantResult out;
  out.name = name;
  out.run_start_ns = warm_end + 10 * kNsPerMs;
  const auto probe_tag = [](SwapSlot slot) { return slot * 2654435761u + 1; };
  if (tag_slots > 0) {
    HostAgent* agent = cluster.host(0).host_agent();
    Rng tag_rng(7);
    for (SwapSlot slot = 0; slot < tag_slots; ++slot) {
      agent->WriteTag(slot, probe_tag(slot), warm_end, tag_rng);
    }
    out.tags_written = tag_slots;
  }
  for (size_t h = 0; h < geo.hosts; ++h) {
    RunConfig run;
    run.total_accesses = geo.accesses_per_host;
    run.start_time_ns = out.run_start_ns;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  const auto results = cluster.Run(std::move(specs));

  // Headline series: demand-miss latency (a faulting process blocked on
  // the read) - the metric mitigation targets. The all-remote-access
  // histogram would dilute it with hits on prefetched pages.
  Histogram merged;
  for (size_t h = 0; h < geo.hosts; ++h) {
    merged.Merge(results[h].miss_latency);
    out.max_completion_ns =
        std::max(out.max_completion_ns, results[h].completion_ns);
  }
  out.p50_remote_ns = merged.Percentile(0.5);
  out.p99_remote_ns = merged.Percentile(0.99);
  const ClusterStats stats = cluster.Stats();
  out.totals = stats.totals;
  out.hedge_ops = stats.ClassOps(IoClass::kHedge);
  if (tag_slots > 0) {
    HostAgent* agent = cluster.host(0).host_agent();
    for (SwapSlot slot = 0; slot < tag_slots; ++slot) {
      if (agent->ReadTag(slot) != std::optional<uint64_t>(probe_tag(slot))) {
        ++out.tags_lost;
      }
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
  if (!obs.trace_path.empty() && cluster.trace() != nullptr) {
    std::ofstream tf(obs.trace_path);
    cluster.trace()->ExportChromeTrace(tf);
    std::printf("wrote %s (%zu events buffered, %llu dropped)\n",
                obs.trace_path.c_str(), cluster.trace()->size(),
                static_cast<unsigned long long>(cluster.trace()->dropped()));
  }
  if (!obs.timeseries_path.empty() && cluster.sampler() != nullptr) {
    std::ofstream ts(obs.timeseries_path);
    cluster.sampler()->WriteJsonl(ts);
    std::printf("wrote %s (%zu samples)\n", obs.timeseries_path.c_str(),
                cluster.sampler()->samples().size());
  }
  if (obs.dump) {
    cluster.DumpStats(std::cout);
  }
  return out;
}

struct CorrelatedResult {
  std::vector<uint32_t> group;
  uint64_t reads_lost = 0;
  uint64_t slab_repairs = 0;
  uint64_t repair_copies = 0;
  uint64_t failovers = 0;
  uint64_t tags_written = 0;
  uint64_t tags_lost = 0;
  uint64_t p99_remote_ns = 0;
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
  const VariantResult v =
      RunVariant(geo, "correlated", plan, /*mitigation=*/true,
                 /*monitor=*/true, /*gray_inject_ns=*/0, tag_slots);
  CorrelatedResult out;
  out.group = std::move(group);
  out.reads_lost = v.totals.Get(counter::kRemoteReadsLost);
  out.slab_repairs = v.totals.Get(counter::kSlabRepairs);
  out.repair_copies = v.totals.Get(counter::kRepairPageCopies);
  out.failovers = v.totals.Get(counter::kRemoteFailovers);
  out.tags_written = v.tags_written;
  out.tags_lost = v.tags_lost;
  out.p99_remote_ns = v.p99_remote_ns;
  return out;
}

void WriteResilienceJson(FILE* f, const Counters& totals) {
  std::fprintf(
      f,
      "{\"read_retries\": %llu, \"deadline_misses\": %llu, "
      "\"hedged_reads\": %llu, \"hedge_wins\": %llu, "
      "\"reads_rerouted\": %llu, \"gray_transitions\": %llu, "
      "\"gray_fault_events\": %llu, \"delay_spike_events\": %llu}",
      static_cast<unsigned long long>(totals.Get(counter::kReadRetries)),
      static_cast<unsigned long long>(
          totals.Get(counter::kReadDeadlineMisses)),
      static_cast<unsigned long long>(totals.Get(counter::kHedgedReads)),
      static_cast<unsigned long long>(totals.Get(counter::kHedgeWins)),
      static_cast<unsigned long long>(totals.Get(counter::kReadsRerouted)),
      static_cast<unsigned long long>(totals.Get(counter::kGrayTransitions)),
      static_cast<unsigned long long>(totals.Get(counter::kGrayFaultEvents)),
      static_cast<unsigned long long>(
          totals.Get(counter::kDelaySpikeEvents)));
}

void WriteJson(const char* path, const BenchGeometry& geo,
               const std::vector<VariantResult>& variants,
               SimTimeNs gray_inject_ns, double improvement,
               const std::vector<CorrelatedResult>& correlated, bool smoke) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  bench::WriteSchemaPreamble(
      f, {"fig16_failover", /*seed=*/91, geo.hosts, geo.nodes,
          "demand_priority",
          PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
  std::fprintf(f,
               "  \"geometry\": {\"hosts\": %zu, \"nodes\": %zu, "
               "\"footprint_pages\": %zu, \"accesses_per_host\": %zu, "
               "\"slab_pages\": %zu},\n",
               geo.hosts, geo.nodes, geo.footprint_pages,
               geo.accesses_per_host, geo.slab_pages);
  std::fprintf(f,
               "  \"gray_fault\": {\"node\": %u, \"stretch\": %.1f, "
               "\"inject_ns\": %llu},\n",
               kGrayNode, geo.gray_stretch,
               static_cast<unsigned long long>(gray_inject_ns));
  std::fprintf(f, "  \"variants\": [\n");
  for (size_t i = 0; i < variants.size(); ++i) {
    const VariantResult& v = variants[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"p50_remote_ns\": %llu, "
        "\"p99_remote_ns\": %llu, \"detection_delay_ns\": %llu, "
        "\"hedge_fabric_ops\": %llu, \"max_completion_ns\": %llu, "
        "\"resilience\": ",
        v.name.c_str(), static_cast<unsigned long long>(v.p50_remote_ns),
        static_cast<unsigned long long>(v.p99_remote_ns),
        static_cast<unsigned long long>(v.detection_delay_ns),
        static_cast<unsigned long long>(v.hedge_ops),
        static_cast<unsigned long long>(v.max_completion_ns));
    WriteResilienceJson(f, v.totals);
    std::fprintf(f, "}%s\n", i + 1 < variants.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"p99_improvement\": %.2f,\n", improvement);
  std::fprintf(f, "  \"correlated_failures\": [\n");
  for (size_t i = 0; i < correlated.size(); ++i) {
    const CorrelatedResult& c = correlated[i];
    std::fprintf(f, "    {\"group\": [");
    for (size_t n = 0; n < c.group.size(); ++n) {
      std::fprintf(f, "%u%s", c.group[n], n + 1 < c.group.size() ? ", " : "");
    }
    std::fprintf(f,
                 "], \"reads_lost\": %llu, \"slab_repairs\": %llu, "
                 "\"repair_page_copies\": %llu, \"read_failovers\": %llu, "
                 "\"probe_tags_written\": %llu, \"probe_tags_lost\": %llu, "
                 "\"p99_remote_ns\": %llu}%s\n",
                 static_cast<unsigned long long>(c.reads_lost),
                 static_cast<unsigned long long>(c.slab_repairs),
                 static_cast<unsigned long long>(c.repair_copies),
                 static_cast<unsigned long long>(c.failovers),
                 static_cast<unsigned long long>(c.tags_written),
                 static_cast<unsigned long long>(c.tags_lost),
                 static_cast<unsigned long long>(c.p99_remote_ns),
                 i + 1 < correlated.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

void Run(const bench::BenchArgs& args) {
  const bool smoke = args.smoke;
  const BenchGeometry geo = smoke ? SmokeGeometry() : FullGeometry();
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
  const SimTimeNs span = baseline.max_completion_ns;
  const SimTimeNs inject = baseline.run_start_ns + span / 5;

  FaultPlan gray_plan;
  gray_plan.Gray(kGrayNode, geo.gray_stretch, inject, /*until=*/0);

  const VariantResult unmitigated =
      RunVariant(geo, "gray_unmitigated", gray_plan, /*mitigation=*/false,
                 /*monitor=*/true, inject);
  // The mitigated variant is the one worth watching: its trace shows the
  // gray_set instant, the monitor's suspect->gray track, and the reroute/
  // hedge/retry instants clawing the tail back.
  ObsOptions obs;
  if (args.trace) {
    obs.trace_path = args.trace_path;
  }
  if (args.timeseries) {
    obs.timeseries_path = args.timeseries_path;
  }
  obs.dump = true;
  const VariantResult mitigated =
      RunVariant(geo, "gray_mitigated", gray_plan, /*mitigation=*/true,
                 /*monitor=*/true, inject, /*tag_slots=*/0, obs);

  TextTable table;
  table.SetHeader({"variant", "p50 remote(us)", "p99 remote(us)",
                   "detect delay(ms)", "rerouted", "hedges", "retries"});
  const std::vector<const VariantResult*> rows = {&baseline, &unmitigated,
                                                 &mitigated};
  for (const VariantResult* v : rows) {
    char p50[32], p99[32], det[32], rer[32], hed[32], ret[32];
    std::snprintf(p50, sizeof(p50), "%.2f", ToUs(v->p50_remote_ns));
    std::snprintf(p99, sizeof(p99), "%.2f", ToUs(v->p99_remote_ns));
    std::snprintf(det, sizeof(det), "%.3f",
                  static_cast<double>(v->detection_delay_ns) / kNsPerMs);
    std::snprintf(rer, sizeof(rer), "%llu",
                  static_cast<unsigned long long>(
                      v->totals.Get(counter::kReadsRerouted)));
    std::snprintf(hed, sizeof(hed), "%llu",
                  static_cast<unsigned long long>(
                      v->totals.Get(counter::kHedgedReads)));
    std::snprintf(ret, sizeof(ret), "%llu",
                  static_cast<unsigned long long>(
                      v->totals.Get(counter::kReadRetries)));
    table.AddRow({v->name, p50, p99, det, rer, hed, ret});
  }
  std::printf("%s\n", table.Render().c_str());

  const double improvement =
      mitigated.p99_remote_ns == 0
          ? 0.0
          : static_cast<double>(unmitigated.p99_remote_ns) /
                static_cast<double>(mitigated.p99_remote_ns);
  std::printf("gray-node demand p99: unmitigated %.2f us vs mitigated "
              "%.2f us -> %.2fx improvement (acceptance bar: >= 3x)\n",
              ToUs(unmitigated.p99_remote_ns), ToUs(mitigated.p99_remote_ns),
              improvement);
  std::printf("detection window: gray marked %.3f ms after injection\n\n",
              static_cast<double>(mitigated.detection_delay_ns) / kNsPerMs);

  // Correlated-failure sweep: a 1-node domain loses nothing (repair
  // re-replicates every slab from its survivor); a 2-node domain with
  // replicas=2 takes out whole replica sets - those slabs are remapped
  // with no source, so repair_page_copies falls short of what the repair
  // count implies (the missing copies ARE the lost data).
  const SimTimeNs crash_at = baseline.run_start_ns + span / 3;
  const SimTimeNs recover_at = baseline.run_start_ns + 2 * span / 3;
  std::vector<CorrelatedResult> correlated;
  correlated.push_back(RunCorrelated(geo, {1}, crash_at, recover_at));
  correlated.push_back(RunCorrelated(geo, {1, 2}, crash_at, recover_at));
  for (const CorrelatedResult& c : correlated) {
    std::printf("correlated crash of %zu node(s): slab_repairs %llu, "
                "repair_copies %llu, probe tags lost %llu/%llu, "
                "reads_lost %llu, p99 %.2f us\n",
                c.group.size(),
                static_cast<unsigned long long>(c.slab_repairs),
                static_cast<unsigned long long>(c.repair_copies),
                static_cast<unsigned long long>(c.tags_lost),
                static_cast<unsigned long long>(c.tags_written),
                static_cast<unsigned long long>(c.reads_lost),
                ToUs(c.p99_remote_ns));
  }
  std::printf("\n");

  WriteJson(args.json_path.c_str(), geo, {baseline, unmitigated, mitigated},
            inject, improvement, correlated, smoke);
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  leap::Run(leap::bench::ParseBenchArgs(argc, argv, "BENCH_failover.json"));
  return 0;
}
