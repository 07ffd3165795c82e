// Figure 15 (this repo's extension): per-link fabric QoS and per-tenant
// prefetch budgets under an antagonist tenant - the link-layer half of the
// paper's demand-first data-path claim, and the cluster-level version of
// its section 5.3.3 self-throttling claim.
//
// Section 4 of the paper argues the win from prefetching comes from a lean,
// prioritized path where prefetches never delay demand fetches. An 8-host
// cluster shares a 2-node donor pool. Host 0 is the antagonist (zipf-0.99
// storm behind aggressive next-8-line prefetching: nearly pure pollution),
// hosts 1..7 are sequential victims whose next-8-line prefetches are almost
// all hits. The same cluster runs under FIFO links (baseline), strict
// demand-priority links, and per-tenant DRR links - each with the budget
// governor off and on (stacked source + link QoS). Victim demand-read p99
// is the headline: both schedulers must beat FIFO under the storm.
//
// The two FIFO rows isolate the governor (source QoS only): its AIMD on the
// fabric queue-delay EWMA and per-tenant accuracy should collapse the
// antagonist's budget while the victims keep their windows, cutting victim
// p99 and the wasted-prefetch ratio. Those rows also carry the prefetch
// counts, mean fabric queue delay, prefetches per miss on each side and
// the governor's shrink events.
//
// Usage: fig15_qos [--smoke] [--trace[=path]] [--timeseries[=path]]
//                  [output.json]
//   --smoke       smaller footprints/accesses for CI (still 8 hosts)
//   --trace       flight-record the demand-priority+governed run
//                 (default BENCH_qos.trace.json)
//   --timeseries  sample that run's EWMAs/budgets/windowed p99 to JSONL
//                 (default BENCH_qos.timeseries.jsonl)
//   output        results JSON (default BENCH_qos.json)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/cluster.h"
#include "src/stats/table.h"

namespace leap {
namespace {

struct BenchGeometry {
  size_t hosts = 8;
  size_t nodes = 2;
  size_t footprint_pages = 4096;
  size_t accesses_per_host = 20000;
  size_t slab_pages = 256;
};

BenchGeometry FullGeometry() { return {8, 2, 4096, 20000, 256}; }
BenchGeometry SmokeGeometry() { return {8, 2, 1024, 4000, 64}; }

PrefetchBudgetConfig GovernorConfig() {
  PrefetchBudgetConfig budget;
  budget.enabled = true;
  budget.min_budget = 1;
  budget.max_budget = 8;  // = the next-8-line window: starts unclamped
  budget.queue_delay_threshold_ns = 5'000.0;
  budget.decrease_factor = 0.5;
  budget.increase_step = 0.5;
  budget.adjust_period_ns = 500 * kNsPerUs;
  budget.accuracy_keep_threshold = 0.5;
  return budget;
}

struct QosResult {
  LinkSchedulerKind sched = LinkSchedulerKind::kFifo;
  bool governed = false;
  bench::RunSummary run;
  Histogram victims;  // demand-miss latency of hosts 1..N-1
  uint64_t antagonist_p99_ns = 0;
  // Time-averaged effective window: prefetches issued per cache miss
  // (the AIMD sawtooth makes end-of-run budget snapshots uninformative).
  double antagonist_pf_per_miss = 0.0;
  double victim_pf_per_miss = 0.0;
  uint64_t shrink_events = 0;
  bool exported = true;

  uint64_t VictimP99() const { return victims.Percentile(0.99); }
  double WastedRatio() const {
    return run.stats.totals.Ratio(counter::kPrefetchUnused,
                                  counter::kPrefetchIssued);
  }
  double QueueDelay(IoClass cls) const {
    return run.stats.class_queue_delay_mean_ns[static_cast<size_t>(cls)];
  }
};

// `obs` non-null marks the headline run: it records and exports what the
// command line asked for and dumps its stats.
QosResult RunOnce(const BenchGeometry& geo, LinkSchedulerKind sched,
                  bool governed, const bench::BenchArgs* obs) {
  ClusterConfig config;
  config.hosts = geo.hosts;
  config.nodes = geo.nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.footprint_pages, /*seed=*/42);
  config.host.prefetcher = PrefetchKind::kNextNLine;
  config.host.host_agent.slab_pages = geo.slab_pages;
  config.fabric.sched.kind = sched;
  if (governed) {
    config.host.budget = GovernorConfig();
  }
  config.seed = 91;
  if (obs != nullptr) {
    bench::EnableObservability(config, *obs);
  }
  Cluster cluster(config);

  // Antagonist: a zipf storm over 4x the victims' footprint at zero think
  // time - every fault lands on the scattered cold tail, where next-8-line
  // prefetches neighbors that are almost never re-referenced: maximum
  // pollution per fault.
  const size_t storm_footprint = 4 * geo.footprint_pages;
  std::vector<bench::ClusterApp> apps;
  apps.push_back({0, geo.footprint_pages / 2, storm_footprint,
                  std::make_unique<ZipfStream>(storm_footprint, 0.99,
                                               /*think_ns=*/0)});
  for (size_t h = 1; h < geo.hosts; ++h) {
    apps.push_back({h, geo.footprint_pages / 2, geo.footprint_pages,
                    std::make_unique<SequentialStream>(geo.footprint_pages,
                                                       /*think_ns=*/300)});
  }
  const SimTimeNs warm_end = bench::WarmApps(cluster, apps);
  const auto results =
      bench::RunApps(cluster, apps, geo.accesses_per_host, warm_end);

  QosResult out;
  out.sched = sched;
  out.governed = governed;
  out.run = bench::Summarize(cluster, results);
  for (size_t h = 1; h < geo.hosts; ++h) {
    out.victims.Merge(results[h].miss_latency);
  }
  out.antagonist_p99_ns = results[0].miss_latency.Percentile(0.99);
  out.antagonist_pf_per_miss = cluster.host(0).counters().Ratio(
      counter::kPrefetchIssued, counter::kCacheMisses);
  out.victim_pf_per_miss = cluster.host(1).counters().Ratio(
      counter::kPrefetchIssued, counter::kCacheMisses);
  if (governed) {
    for (size_t h = 0; h < geo.hosts; ++h) {
      out.shrink_events += cluster.host(h).governor()->shrink_events();
    }
  }
  if (obs != nullptr) {
    out.exported = bench::ExportObservability(cluster, *obs);
  }
  return out;
}

void PrintRow(TextTable& table, const QosResult& r) {
  char p50[32], p99[32], ap99[32], waste[32], dq[32], pq[32];
  std::snprintf(p50, sizeof(p50), "%.2f", ToUs(r.victims.Percentile(0.5)));
  std::snprintf(p99, sizeof(p99), "%.2f", ToUs(r.VictimP99()));
  std::snprintf(ap99, sizeof(ap99), "%.2f", ToUs(r.antagonist_p99_ns));
  std::snprintf(waste, sizeof(waste), "%.3f", r.WastedRatio());
  std::snprintf(dq, sizeof(dq), "%.2f",
                r.QueueDelay(IoClass::kDemandRead) / 1000.0);
  std::snprintf(pq, sizeof(pq), "%.2f",
                r.QueueDelay(IoClass::kPrefetch) / 1000.0);
  table.AddRow({LinkSchedulerKindName(r.sched), r.governed ? "on" : "off",
                p50, p99, ap99, waste, dq, pq});
}

bench::JsonObject Row(const QosResult& r) {
  const ClusterStats& stats = r.run.stats;
  bench::JsonObject row;
  row.Str("scheduler", LinkSchedulerKindName(r.sched))
      .Str("governor", r.governed ? "on" : "off")
      .Int("victim_demand_p50_ns", r.victims.Percentile(0.5))
      .Int("victim_demand_p99_ns", r.VictimP99())
      .Int("antagonist_demand_p99_ns", r.antagonist_p99_ns)
      .Num("wasted_prefetch_ratio", r.WastedRatio(), 4)
      .Num("demand_qdelay_mean_ns", r.QueueDelay(IoClass::kDemandRead), 1)
      .Num("prefetch_qdelay_mean_ns", r.QueueDelay(IoClass::kPrefetch), 1)
      .Int("downlink_demand_ops", stats.ClassOps(IoClass::kDemandRead))
      .Int("downlink_prefetch_ops", stats.ClassOps(IoClass::kPrefetch))
      .Int("remote_reads", r.run.Total(counter::kRemoteReads))
      .Int("max_completion_ns", r.run.max_completion_ns);
  if (r.sched == LinkSchedulerKind::kFifo) {
    row.Int("prefetch_issued", r.run.Total(counter::kPrefetchIssued))
        .Int("prefetch_unused", r.run.Total(counter::kPrefetchUnused))
        .Int("prefetch_hits", r.run.Total(counter::kPrefetchHits))
        .Num("fabric_qdelay_mean_ns", stats.queue_delay_mean_ns, 1)
        .Num("antagonist_pf_per_miss", r.antagonist_pf_per_miss, 2)
        .Num("victim_pf_per_miss", r.victim_pf_per_miss, 2)
        .Int("governor_shrink_events", r.shrink_events);
  }
  return row;
}

double Speedup(const QosResult& base, const QosResult& r) {
  return r.VictimP99() == 0 ? 0.0
                            : static_cast<double>(base.VictimP99()) /
                                  static_cast<double>(r.VictimP99());
}

// `rows` in run order: fifo, demand-priority, drr; governor off then on.
bool WriteJson(const std::string& path, const BenchGeometry& geo,
               const std::vector<QosResult>& rows, bool smoke) {
  bench::JsonObject doc = bench::BenchJson(
      smoke, {"fig15_qos", /*seed=*/91, geo.hosts, geo.nodes,
              "fifo|demand_priority|drr",
              PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
  doc.Obj("geometry", bench::JsonObject()
                          .Int("hosts", geo.hosts)
                          .Int("nodes", geo.nodes)
                          .Int("footprint_pages", geo.footprint_pages)
                          .Int("accesses_per_host", geo.accesses_per_host)
                          .Int("slab_pages", geo.slab_pages));
  doc.Obj("workloads",
          bench::JsonObject()
              .Str("antagonist", "zipf-0.99 storm (host 0)")
              .Str("victims", "sequential (hosts 1.." +
                                  std::to_string(geo.hosts - 1) + ")")
              .Str("policy", "next-8-line"));
  for (const QosResult& r : rows) {
    doc.Obj(std::string(LinkSchedulerKindName(r.sched)) + "_governor_" +
                (r.governed ? "on" : "off"),
            Row(r));
  }
  // Headline: victim p99 speedup of each scheduler vs FIFO, governor off
  // (pure link-QoS effect) and on (stacked); and of the governor alone.
  doc.Obj("improvement",
          bench::JsonObject()
              .Num("priority_victim_p99_speedup_vs_fifo",
                   Speedup(rows[0], rows[2]), 3)
              .Num("drr_victim_p99_speedup_vs_fifo", Speedup(rows[0], rows[4]),
                   3)
              .Num("priority_gov_victim_p99_speedup_vs_fifo_gov",
                   Speedup(rows[1], rows[3]), 3)
              .Num("drr_gov_victim_p99_speedup_vs_fifo_gov",
                   Speedup(rows[1], rows[5]), 3)
              .Num("victim_p99_speedup", Speedup(rows[0], rows[1]), 3));
  return bench::WriteJsonFile(path, doc);
}

int Run(const bench::BenchArgs& args) {
  const BenchGeometry geo = args.smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 15 (extension): per-link fabric QoS vs an antagonist storm",
      "8 hosts, one zipf-0.99 storm behind next-8-line; FIFO links vs "
      "strict demand-priority vs per-tenant DRR, each with the AIMD budget "
      "governor off/on (the paper's demand-first data path at the link "
      "layer; section 5.3.3 throttling, cluster-wide)");

  std::vector<QosResult> rows;
  for (const LinkSchedulerKind sched :
       {LinkSchedulerKind::kFifo, LinkSchedulerKind::kDemandPriority,
        LinkSchedulerKind::kDrr}) {
    for (const bool governed : {false, true}) {
      // Demand-priority + governor is the headline combination (stacked
      // source + link QoS): it carries the observability exports.
      const bool headline =
          sched == LinkSchedulerKind::kDemandPriority && governed;
      rows.push_back(RunOnce(geo, sched, governed, headline ? &args : nullptr));
    }
  }

  TextTable table;
  table.SetHeader({"scheduler", "governor", "victim p50(us)",
                   "victim p99(us)", "antag p99(us)", "wasted ratio",
                   "demand qdelay(us)", "prefetch qdelay(us)"});
  for (const QosResult& r : rows) {
    PrintRow(table, r);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "victim demand-read p99 (governor off): fifo %.2f us, "
      "demand-priority %.2f us, drr %.2f us\n",
      ToUs(rows[0].VictimP99()), ToUs(rows[2].VictimP99()),
      ToUs(rows[4].VictimP99()));
  std::printf(
      "fifo links, governor off -> on: victim p99 %.2f -> %.2f us, wasted "
      "ratio %.3f -> %.3f, antagonist pf/miss %.2f -> %.2f\n\n",
      ToUs(rows[0].VictimP99()), ToUs(rows[1].VictimP99()),
      rows[0].WastedRatio(), rows[1].WastedRatio(),
      rows[0].antagonist_pf_per_miss, rows[1].antagonist_pf_per_miss);

  const bool written = WriteJson(args.json_path, geo, rows, args.smoke);
  return written && rows[3].exported ? 0 : 1;
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  return leap::Run(leap::bench::ParseBenchArgs(argc, argv, "BENCH_qos.json"));
}
