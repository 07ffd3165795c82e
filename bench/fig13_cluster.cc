// Figure 13, scaled out: many hosts sharing a disaggregated memory pool
// over one fabric. The paper shows Leap surviving four concurrent apps on
// one host; this bench grows that to a cluster - hosts 1 -> 32 running
// mixed workloads (zipf / sequential / trace) against a fixed donor pool -
// and measures what no single-host run can: remote tail latency as a
// function of cluster load (per-link bandwidth fixed, so p99 rises with
// host count) and slab-placement imbalance across policies.
//
// Usage: fig13_cluster [--smoke] [--trace[=path]] [--timeseries[=path]]
//                      [output.json]
//   --smoke       tiny configuration for CI (3 scales, small footprints)
//   --trace       flight-record the largest scale (chrome://tracing JSON)
//   --timeseries  sample the largest scale's stats to JSONL
//   output        trajectory JSON (default BENCH_cluster.json)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/cluster.h"
#include "src/stats/table.h"

namespace leap {
namespace {

struct BenchGeometry {
  std::vector<size_t> host_scales;
  size_t nodes = 4;
  size_t footprint_pages = 4096;
  size_t accesses_per_host = 20000;
  size_t slab_pages = 256;
};

BenchGeometry FullGeometry() {
  return {{1, 2, 4, 8, 16, 32}, 4, 4096, 20000, 256};
}

BenchGeometry SmokeGeometry() {
  return {{1, 2, 4}, 2, 1024, 4000, 64};
}

struct ScaleResult {
  size_t hosts = 0;
  bench::RunSummary run;
  bool exported = true;
};

// `obs` non-null marks the headline run: it records and exports what the
// command line asked for and dumps its stats.
ScaleResult RunScale(const BenchGeometry& geo, size_t hosts,
                     PlacementPolicy placement,
                     const bench::BenchArgs* obs = nullptr) {
  ClusterConfig config;
  config.hosts = hosts;
  config.nodes = geo.nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.footprint_pages, /*seed=*/42);
  config.host.host_agent.slab_pages = geo.slab_pages;
  config.placement = placement;
  config.seed = 91;
  if (obs != nullptr) {
    bench::EnableObservability(config, *obs);
  }
  Cluster cluster(config);
  std::vector<bench::ClusterApp> apps =
      bench::ClusterMixApps(hosts, geo.footprint_pages);
  const SimTimeNs warm_end = bench::WarmApps(cluster, apps);
  const auto results =
      bench::RunApps(cluster, apps, geo.accesses_per_host, warm_end);

  ScaleResult out;
  out.hosts = hosts;
  out.run = bench::Summarize(cluster, results);
  if (obs != nullptr) {
    out.exported = bench::ExportObservability(cluster, *obs);
  }
  return out;
}

bench::JsonObject Row(const ScaleResult& s) {
  const bench::RunSummary& r = s.run;
  // The resilience counters are all zero in this fault-free bench (the
  // invariant the determinism tests pin down), nonzero only if mitigation
  // ever fires.
  return bench::JsonObject()
      .Int("hosts", s.hosts)
      .Int("p50_remote_ns", r.remote_latency.Percentile(0.5))
      .Int("p99_remote_ns", r.remote_latency.Percentile(0.99))
      .Num("fabric_queue_delay_mean_ns", r.stats.queue_delay_mean_ns, 1)
      .Int("fabric_ops", r.stats.fabric_ops)
      .Int("slab_imbalance", r.stats.SlabImbalance())
      .Int("capacity_exhausted", r.Total(counter::kRemoteCapacityExhausted))
      .Num("agg_accesses_per_sim_sec", r.AccessesPerSimSec(), 0)
      .Int("remote_reads", r.Total(counter::kRemoteReads))
      .Int("max_completion_ns", r.max_completion_ns)
      .Obj("resilience", bench::ResilienceJson(r.stats.totals));
}

int Run(const bench::BenchArgs& args) {
  const BenchGeometry geo = args.smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 13 (cluster): hosts 1 -> 32 sharing a fixed donor pool",
      "single-host concurrency (paper: 1.1-2.4x across four apps) scaled "
      "out - fixed per-link bandwidth, so remote p99 rises with host "
      "count; power-of-two-choices keeps slab placement balanced");

  // Placement-policy comparison at the 4-host scale (acceptance: two
  // choices beats first-fit on imbalance). The power-of-two number comes
  // from the sweep; only the other policies need a run.
  const size_t compare_hosts = 4;
  size_t po2 = 0;
  bool exported = true;
  std::vector<std::string> rows;
  TextTable table;
  table.SetHeader({"hosts", "p50 remote(us)", "p99 remote(us)",
                   "fabric qdelay mean(us)", "agg acc/sim-s",
                   "slab imbalance"});
  for (size_t hosts : geo.host_scales) {
    // The largest scale is the headline (the one whose contention story
    // the figure is about): it gets the stats dump and any exports.
    const bool headline = hosts == geo.host_scales.back();
    const ScaleResult s = RunScale(geo, hosts, PlacementPolicy::kPowerOfTwo,
                                   headline ? &args : nullptr);
    exported = exported && s.exported;
    if (hosts == compare_hosts) {
      po2 = s.run.stats.SlabImbalance();
    }
    rows.push_back(Row(s).Line());
    char p50[32], p99[32], qd[32], thr[32], imb[32], hs[32];
    std::snprintf(hs, sizeof(hs), "%zu", s.hosts);
    std::snprintf(p50, sizeof(p50), "%.2f",
                  ToUs(s.run.remote_latency.Percentile(0.5)));
    std::snprintf(p99, sizeof(p99), "%.2f",
                  ToUs(s.run.remote_latency.Percentile(0.99)));
    std::snprintf(qd, sizeof(qd), "%.2f",
                  s.run.stats.queue_delay_mean_ns / 1000.0);
    std::snprintf(thr, sizeof(thr), "%.0f", s.run.AccessesPerSimSec());
    std::snprintf(imb, sizeof(imb), "%zu", s.run.stats.SlabImbalance());
    table.AddRow({hs, p50, p99, qd, thr, imb});
  }
  std::printf("%s\n", table.Render().c_str());

  const auto imbalance = [&](PlacementPolicy placement) {
    return RunScale(geo, compare_hosts, placement).run.stats.SlabImbalance();
  };
  const size_t ff = imbalance(PlacementPolicy::kFirstFit);
  const size_t striped = imbalance(PlacementPolicy::kStriped);
  std::printf("slab imbalance @ %zu hosts: first-fit %zu, "
              "power-of-two-choices %zu, striped %zu\n\n",
              compare_hosts, ff, po2, striped);

  bench::JsonObject doc = bench::BenchJson(
      args.smoke, {"fig13_cluster", /*seed=*/91, geo.host_scales.back(),
                   geo.nodes, "fifo",
                   PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
  doc.Obj("geometry", bench::JsonObject()
                          .Int("nodes", geo.nodes)
                          .Int("footprint_pages", geo.footprint_pages)
                          .Int("accesses_per_host", geo.accesses_per_host)
                          .Int("slab_pages", geo.slab_pages))
      .Raw("workload_mix", bench::kClusterMixJson)
      .Raw("scales", bench::JsonRows(rows))
      .Obj("placement_imbalance_at_4_hosts", bench::JsonObject()
                                                 .Int("first_fit", ff)
                                                 .Int("power_of_two", po2)
                                                 .Int("striped", striped));
  const bool written = bench::WriteJsonFile(args.json_path, doc);
  return written && exported ? 0 : 1;
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  return leap::Run(
      leap::bench::ParseBenchArgs(argc, argv, "BENCH_cluster.json"));
}
