// Figure 14 (this repo's extension): adaptive per-tenant prefetch budgets
// under an antagonist tenant.
//
// Section 5.3.3 of the paper argues Leap's window throttles itself on
// low-accuracy streams; this bench measures the cluster-level version of
// that claim for policies with no such self-throttle. An 8-host cluster
// shares a 2-node donor pool over one fabric. Host 0 is the antagonist: a
// zipf-0.99 storm behind an aggressive next-8-line policy, so nearly every
// prefetch it issues is pollution that still burns fabric bandwidth. Hosts
// 1..7 are sequential victims whose next-8-line prefetches are almost all
// hits. The same cluster runs with the BudgetGovernor off and on; the
// governor should collapse the antagonist's budget (AIMD on fabric
// queue-delay EWMA + per-tenant accuracy) while leaving the victims'
// windows intact - improving victim demand-read p99 and cutting the
// wasted-prefetch ratio.
//
// Usage: fig14_budget [--smoke] [--timeseries[=path]] [output.json]
//   --smoke       smaller footprints/accesses for CI (still 8 hosts)
//   --timeseries  sample the governed run's budgets/EWMAs/windowed p99 to
//                 JSONL (default BENCH_budget.timeseries.jsonl)
//   output        results JSON (default BENCH_budget.json)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
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

struct GovernedResult {
  bool governed = false;
  uint64_t victim_demand_p50_ns = 0;
  uint64_t victim_demand_p99_ns = 0;
  uint64_t antagonist_demand_p99_ns = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_unused = 0;
  uint64_t prefetch_hits = 0;
  double wasted_ratio = 0.0;
  double fabric_qdelay_mean_ns = 0.0;
  // Time-averaged effective window: prefetches issued per cache miss
  // (the AIMD sawtooth makes end-of-run budget snapshots uninformative).
  double antagonist_pf_per_miss = 0.0;
  double victim_pf_per_miss = 0.0;
  uint64_t shrink_events = 0;
  uint64_t total_remote_reads = 0;  // determinism fingerprint
  SimTimeNs max_completion_ns = 0;
};

// `timeseries_path` non-empty enables the StatsSampler on this run and
// writes its JSONL there; `dump` non-null gets the human-readable stats
// dump. Both are pure observation - the measured numbers are bit-identical
// either way (pinned by obs_trace_test).
GovernedResult RunOnce(const BenchGeometry& geo, bool governed,
                       const std::string& timeseries_path = "",
                       std::ostream* dump = nullptr) {
  ClusterConfig config;
  config.hosts = geo.hosts;
  config.nodes = geo.nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.footprint_pages, /*seed=*/42);
  config.host.prefetcher = PrefetchKind::kNextNLine;
  config.host.host_agent.slab_pages = geo.slab_pages;
  if (governed) {
    config.host.budget = GovernorConfig();
  }
  config.seed = 91;
  config.sampler.enabled = !timeseries_path.empty();
  Cluster cluster(config);

  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<ClusterAppSpec> specs;
  std::vector<Pid> pids;
  SimTimeNs warm_end = 0;
  for (size_t h = 0; h < geo.hosts; ++h) {
    const Pid pid = cluster.host(h).CreateProcess(geo.footprint_pages / 2);
    pids.push_back(pid);
    if (h == 0) {
      // Antagonist: a zipf storm over 4x the victims' footprint at zero
      // think time. The hot head stays resident, so its faults land on the
      // scattered cold tail - where next-8-line prefetches neighbors that
      // are almost never re-referenced: maximum pollution per fault.
      const size_t storm_footprint = 4 * geo.footprint_pages;
      warm_end = WarmUp(cluster.host(h), pid, storm_footprint, warm_end);
      streams.push_back(std::make_unique<ZipfStream>(storm_footprint, 0.99,
                                                     /*think_ns=*/0));
    } else {
      warm_end = WarmUp(cluster.host(h), pid, geo.footprint_pages, warm_end);
      streams.push_back(std::make_unique<SequentialStream>(
          geo.footprint_pages, /*think_ns=*/300));
    }
  }
  for (size_t h = 0; h < geo.hosts; ++h) {
    RunConfig run;
    run.total_accesses = geo.accesses_per_host;
    run.start_time_ns = warm_end + 10 * kNsPerMs;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  const auto results = cluster.Run(std::move(specs));

  GovernedResult out;
  out.governed = governed;
  Histogram victims;
  for (size_t h = 1; h < geo.hosts; ++h) {
    victims.Merge(results[h].miss_latency);
  }
  out.victim_demand_p50_ns = victims.Percentile(0.5);
  out.victim_demand_p99_ns = victims.Percentile(0.99);
  out.antagonist_demand_p99_ns = results[0].miss_latency.Percentile(0.99);
  const ClusterStats stats = cluster.Stats();
  out.prefetch_issued = stats.totals.Get(counter::kPrefetchIssued);
  out.prefetch_unused = stats.totals.Get(counter::kPrefetchUnused);
  out.prefetch_hits = stats.totals.Get(counter::kPrefetchHits);
  out.wasted_ratio =
      stats.totals.Ratio(counter::kPrefetchUnused, counter::kPrefetchIssued);
  out.fabric_qdelay_mean_ns = stats.queue_delay_mean_ns;
  out.total_remote_reads = stats.totals.Get(counter::kRemoteReads);
  out.antagonist_pf_per_miss = cluster.host(0).counters().Ratio(
      counter::kPrefetchIssued, counter::kCacheMisses);
  out.victim_pf_per_miss = cluster.host(1).counters().Ratio(
      counter::kPrefetchIssued, counter::kCacheMisses);
  if (governed) {
    for (size_t h = 0; h < geo.hosts; ++h) {
      out.shrink_events += cluster.host(h).governor()->shrink_events();
    }
  }
  for (const RunResult& r : results) {
    out.max_completion_ns = std::max(out.max_completion_ns, r.completion_ns);
  }
  if (!timeseries_path.empty() && cluster.sampler() != nullptr) {
    std::ofstream ts(timeseries_path);
    cluster.sampler()->WriteJsonl(ts);
    std::printf("wrote %s (%zu samples)\n", timeseries_path.c_str(),
                cluster.sampler()->samples().size());
  }
  if (dump != nullptr) {
    cluster.DumpStats(*dump);
  }
  return out;
}

void PrintRow(TextTable& table, const GovernedResult& r) {
  char p50[32], p99[32], ap99[32], waste[32], qd[32], ab[32], vb[32];
  std::snprintf(p50, sizeof(p50), "%.2f", ToUs(r.victim_demand_p50_ns));
  std::snprintf(p99, sizeof(p99), "%.2f", ToUs(r.victim_demand_p99_ns));
  std::snprintf(ap99, sizeof(ap99), "%.2f",
                ToUs(r.antagonist_demand_p99_ns));
  std::snprintf(waste, sizeof(waste), "%.3f", r.wasted_ratio);
  std::snprintf(qd, sizeof(qd), "%.2f", r.fabric_qdelay_mean_ns / 1000.0);
  std::snprintf(ab, sizeof(ab), "%.2f", r.antagonist_pf_per_miss);
  std::snprintf(vb, sizeof(vb), "%.2f", r.victim_pf_per_miss);
  table.AddRow({r.governed ? "on" : "off", p50, p99, ap99, waste, qd, ab,
                vb});
}

void WriteJson(const char* path, const BenchGeometry& geo,
               const GovernedResult& off, const GovernedResult& on,
               bool smoke) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  auto emit = [f](const char* key, const GovernedResult& r,
                  const char* trailing) {
    std::fprintf(
        f,
        "  \"%s\": {\"victim_demand_p50_ns\": %llu, "
        "\"victim_demand_p99_ns\": %llu, \"antagonist_demand_p99_ns\": "
        "%llu, \"prefetch_issued\": %llu, \"prefetch_unused\": %llu, "
        "\"prefetch_hits\": %llu, \"wasted_prefetch_ratio\": %.4f, "
        "\"fabric_qdelay_mean_ns\": %.1f, \"antagonist_pf_per_miss\": %.2f, "
        "\"victim_pf_per_miss\": %.2f, \"governor_shrink_events\": %llu, "
        "\"remote_reads\": %llu, \"max_completion_ns\": %llu}%s\n",
        key, static_cast<unsigned long long>(r.victim_demand_p50_ns),
        static_cast<unsigned long long>(r.victim_demand_p99_ns),
        static_cast<unsigned long long>(r.antagonist_demand_p99_ns),
        static_cast<unsigned long long>(r.prefetch_issued),
        static_cast<unsigned long long>(r.prefetch_unused),
        static_cast<unsigned long long>(r.prefetch_hits), r.wasted_ratio,
        r.fabric_qdelay_mean_ns, r.antagonist_pf_per_miss,
        r.victim_pf_per_miss,
        static_cast<unsigned long long>(r.shrink_events),
        static_cast<unsigned long long>(r.total_remote_reads),
        static_cast<unsigned long long>(r.max_completion_ns), trailing);
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  bench::WriteSchemaPreamble(
      f, {"fig14_budget", /*seed=*/91, geo.hosts, geo.nodes, "fifo",
          PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
  std::fprintf(f,
               "  \"geometry\": {\"hosts\": %zu, \"nodes\": %zu, "
               "\"footprint_pages\": %zu, \"accesses_per_host\": %zu, "
               "\"slab_pages\": %zu},\n",
               geo.hosts, geo.nodes, geo.footprint_pages,
               geo.accesses_per_host, geo.slab_pages);
  std::fprintf(f, "  \"workloads\": {\"antagonist\": \"zipf-0.99 storm "
                  "(host 0)\", \"victims\": \"sequential (hosts 1..%zu)\", "
                  "\"policy\": \"next-8-line\"},\n",
               geo.hosts - 1);
  emit("governor_off", off, ",");
  emit("governor_on", on, ",");
  std::fprintf(
      f,
      "  \"improvement\": {\"victim_p99_speedup\": %.3f, "
      "\"wasted_ratio_off\": %.4f, \"wasted_ratio_on\": %.4f}\n",
      on.victim_demand_p99_ns == 0
          ? 0.0
          : static_cast<double>(off.victim_demand_p99_ns) /
                static_cast<double>(on.victim_demand_p99_ns),
      off.wasted_ratio, on.wasted_ratio);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

void Run(const bench::BenchArgs& args) {
  const BenchGeometry geo = args.smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 14 (extension): per-tenant prefetch budgets vs an antagonist",
      "8 hosts, one zipf-0.99 storm behind next-8-line; the AIMD governor "
      "collapses the storm's budget on fabric congestion while sequential "
      "victims keep their windows (section 5.3.3 throttling, cluster-wide)");

  const GovernedResult off = RunOnce(geo, /*governed=*/false);
  // The governed run is the headline: it carries the time series (the AIMD
  // sawtooth per tenant is the thing worth plotting) and the stats dump.
  const GovernedResult on =
      RunOnce(geo, /*governed=*/true,
              args.timeseries ? args.timeseries_path : "", &std::cout);

  TextTable table;
  table.SetHeader({"governor", "victim p50(us)", "victim p99(us)",
                   "antag p99(us)", "wasted ratio", "fabric qdelay(us)",
                   "antag pf/miss", "victim pf/miss"});
  PrintRow(table, off);
  PrintRow(table, on);
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "victim demand-read p99: %.2f us -> %.2f us; wasted-prefetch ratio: "
      "%.3f -> %.3f\n\n",
      ToUs(off.victim_demand_p99_ns), ToUs(on.victim_demand_p99_ns),
      off.wasted_ratio, on.wasted_ratio);

  WriteJson(args.json_path.c_str(), geo, off, on, args.smoke);
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  leap::Run(leap::bench::ParseBenchArgs(argc, argv, "BENCH_budget.json"));
  return 0;
}
