// Figure 17 (this repo's extension): tiered far memory - DRAM ⇄ CXL-like
// fast tier ⇄ fabric remote ⇄ SSD - with a background hot/cold migrator.
//
// The paper's premise is that remote memory is usable when the data path
// hides its latency; a natural follow-on is a *tiered* backing store where
// a small, fast, CXL-like pool absorbs the hot part of the swapped set and
// the fabric only sees the cold tail. This bench measures that: an 8-host
// cluster funnels into a single donor node (deliberate incast on its
// downlink), every host runs two scrambled-zipf processes with a short
// think time (hot pages scattered across the vpn range, so first-touch
// placement is heat-agnostic; the think time keeps the loop approximately
// open, so shed load shows up as shorter queues rather than compressing
// the schedule back to saturation), and we sweep the CXL capacity ratio x
// migrator on/off. With the migrator off, the fast-tier hit ratio is
// pinned near capacity/slots (placement is random w.r.t. heat); with it
// on, the kswapd-style migrator concentrates the zipf head in CXL, the
// fast-tier hit ratio climbs, the fabric sheds demand misses, and the
// demand p99 drops. Migration traffic itself rides IoClass::kMigration
// under a per-link token-bucket bandwidth cap, so the demand-class
// queue-delay EWMA stays flat.
//
// Usage: fig17_tiering [--smoke] [--trace[=path]] [--timeseries[=path]]
//                      [output.json]
//   --smoke       smaller footprints/accesses for CI (still 8 hosts)
//   --trace       flight-record the headline variant (1/4-ratio, migrator
//                 on) and export chrome://tracing JSON
//   --timeseries  sample per-tier occupancy / migration counters to JSONL
//   output        results JSON (default BENCH_tier.json)
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
  size_t nodes = 1;
  size_t footprint_pages = 4096;
  size_t accesses_per_host = 20000;
  size_t slab_pages = 256;
};

BenchGeometry FullGeometry() { return {8, 1, 4096, 20000, 256}; }
BenchGeometry SmokeGeometry() { return {8, 1, 1024, 4000, 64}; }

// CXL capacity as a fraction of each host's footprint: 1/denominator.
constexpr size_t kRatioDenoms[] = {8, 4, 2};

// Migration rides the links at no more than a quarter of a link's
// bandwidth (the repair-style pacing cap, generalized to kMigration).
constexpr double kMigrationFraction = 0.25;

struct TierVariant {
  bool tiered = false;
  size_t ratio_denom = 0;  // cxl = footprint / ratio_denom
  bool migrator = false;
};

std::string VariantKey(const TierVariant& v) {
  if (!v.tiered) {
    return "untiered";
  }
  return "cxl_1_" + std::to_string(v.ratio_denom) + "_migrator_" +
         (v.migrator ? "on" : "off");
}

struct TierResult {
  TierVariant variant;
  bench::RunSummary run;
  bool exported = true;

  // CXL share of the demand reads that hit the backing store.
  double FastHitRatio() const {
    const uint64_t fast = run.Total(counter::kTierFastHits);
    const uint64_t slow = run.Total(counter::kTierSlowHits);
    return fast + slow == 0 ? 0.0
                            : static_cast<double>(fast) /
                                  static_cast<double>(fast + slow);
  }
  uint64_t P50() const { return run.miss_latency.Percentile(0.5); }
  uint64_t P99() const { return run.miss_latency.Percentile(0.99); }
  double DemandQueueDelay() const {
    return run.stats.class_queue_delay_mean_ns[static_cast<size_t>(
        IoClass::kDemandRead)];
  }
};

// `obs` non-null marks the headline run: it records and exports what the
// command line asked for and dumps its stats.
TierResult RunOnce(const BenchGeometry& geo, const TierVariant& variant,
                   const bench::BenchArgs* obs = nullptr) {
  ClusterConfig config;
  config.hosts = geo.hosts;
  config.nodes = geo.nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.footprint_pages, /*seed=*/42);
  config.host.host_agent.slab_pages = geo.slab_pages;
  // Migration protection is belt and suspenders: the per-link bandwidth
  // cap bounds how much wire time migration can consume, and the
  // demand-priority scheduler keeps what remains behind demand fetches
  // (a paced burst must not FIFO-block a faulting process).
  config.fabric.sched.kind = LinkSchedulerKind::kDemandPriority;
  config.fabric.sched.migration_bandwidth_fraction = kMigrationFraction;
  if (variant.tiered) {
    config.host.tier.enabled = true;
    config.host.tier.cxl_capacity_pages =
        geo.footprint_pages / variant.ratio_denom;
    config.host.tier.migrator_enabled = variant.migrator;
    // Heat accrues one count per fault-in (a resident page's slot is not
    // re-read), so qualify a page on its first re-fault and age gently -
    // the default cadence (threshold 3, halve every 8 ticks) decays faster
    // than a paging workload can accrue.
    config.host.tier.promote_threshold = 2;
    config.host.tier.decay_every_ticks = 128;
    // The copies are staggered across the tick, but all hosts' migration
    // funnels into the shared donor downlink: keep the worst-case
    // aggregate (hosts/nodes x 2*batch per period) under the 25%-cap
    // pacing stride (~2.4 us/op), or the paced ops' far-future wire slots
    // ratchet the in-flight ledger and the congestion term charges every
    // class. batch 24 -> <= 48 copies/tick/host -> ~2.6 us downlink
    // inter-arrival at 8 hosts on 1 node: at the budget's edge.
    config.host.tier.migrate_batch = 24;
  }
  config.seed = 91;
  if (obs != nullptr) {
    bench::EnableObservability(config, *obs);
  }
  Cluster cluster(config);

  // Two faulting processes per host: a single zero-think stream carries at
  // most one outstanding fault, which can never congest the donor's
  // downlink; two per host across 8 hosts put 16 concurrent demand
  // streams on one link - the incast regime where shedding misses to the
  // fast tier visibly shortens the demand queue.
  constexpr size_t kProcsPerHost = 2;
  std::vector<bench::ClusterApp> apps;
  for (size_t h = 0; h < geo.hosts; ++h) {
    for (size_t p = 0; p < kProcsPerHost; ++p) {
      // DRAM at 1/8 of each footprint: far-memory-heavy on purpose. With
      // ample DRAM the LRU-resident set absorbs the zipf head and the
      // fault stream degenerates to the distribution's near-uniform tail,
      // which no placement can beat; at 1/8 the swapped set spans ranks
      // with ~8x weight spread, a real hot band for the fast tier to
      // capture.
      //
      // Scrambled zipf: popularity is zipf-0.99 but the hot ranks are
      // scattered over the vpn range, so the sequential warm-up's eviction
      // order (and therefore first-touch tier placement) carries no heat
      // signal - whatever ends up in CXL is a random sample. Any fast-tier
      // concentration beyond capacity/slots is the migrator's doing.
      apps.push_back({h, geo.footprint_pages / 8, geo.footprint_pages,
                      std::make_unique<ScrambledZipfStream>(
                          geo.footprint_pages, 0.99, /*think_ns=*/2000)});
    }
  }
  const SimTimeNs warm_end = bench::WarmApps(cluster, apps);
  const auto results =
      bench::RunApps(cluster, apps, geo.accesses_per_host, warm_end);

  TierResult out;
  out.variant = variant;
  out.run = bench::Summarize(cluster, results);
  if (obs != nullptr) {
    out.exported = bench::ExportObservability(cluster, *obs);
  }
  return out;
}

void PrintRow(TextTable& table, const TierResult& r) {
  char cxl[32], hit[32], p50[32], p99[32], dq[32];
  if (r.variant.tiered) {
    std::snprintf(cxl, sizeof(cxl), "1/%zu", r.variant.ratio_denom);
  } else {
    std::snprintf(cxl, sizeof(cxl), "-");
  }
  std::snprintf(hit, sizeof(hit), "%.3f", r.FastHitRatio());
  std::snprintf(p50, sizeof(p50), "%.2f", ToUs(r.P50()));
  std::snprintf(p99, sizeof(p99), "%.2f", ToUs(r.P99()));
  std::snprintf(dq, sizeof(dq), "%.2f", r.DemandQueueDelay() / 1000.0);
  table.AddRow({cxl,
                !r.variant.tiered ? "-" : r.variant.migrator ? "on" : "off",
                hit, p50, p99, dq,
                std::to_string(r.run.Total(counter::kTierPromotions) +
                               r.run.Total(counter::kTierDemotions))});
}

bench::JsonObject Row(const BenchGeometry& geo, const TierResult& r) {
  const TierVariant& v = r.variant;
  return bench::JsonObject()
      .Bool("tiered", v.tiered)
      .Int("cxl_capacity_pages",
           v.tiered ? geo.footprint_pages / v.ratio_denom : 0)
      .Str("migrator", !v.tiered ? "n/a" : v.migrator ? "on" : "off")
      .Num("fast_tier_hit_ratio", r.FastHitRatio(), 4)
      .Int("demand_p50_ns", r.P50())
      .Int("demand_p99_ns", r.P99())
      .Num("demand_qdelay_mean_ns", r.DemandQueueDelay(), 1)
      .Int("downlink_demand_ops", r.run.stats.ClassOps(IoClass::kDemandRead))
      .Int("downlink_migration_ops",
           r.run.stats.ClassOps(IoClass::kMigration))
      .Int("tier_promotions", r.run.Total(counter::kTierPromotions))
      .Int("tier_demotions", r.run.Total(counter::kTierDemotions))
      .Int("tier_spills", r.run.Total(counter::kTierSpills))
      .Int("remote_reads", r.run.Total(counter::kRemoteReads))
      .Int("max_completion_ns", r.run.max_completion_ns);
}

const TierResult* Find(const std::vector<TierResult>& rows, size_t denom,
                       bool migrator) {
  for (const TierResult& r : rows) {
    if (r.variant.tiered && r.variant.ratio_denom == denom &&
        r.variant.migrator == migrator) {
      return &r;
    }
  }
  return nullptr;
}

bool WriteJson(const std::string& path, const BenchGeometry& geo,
               const std::vector<TierResult>& rows, bool smoke) {
  bench::JsonObject doc = bench::BenchJson(
      smoke, {"fig17_tiering", /*seed=*/91, geo.hosts, geo.nodes,
              LinkSchedulerKindName(LinkSchedulerKind::kDemandPriority),
              PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
  doc.Obj("geometry", bench::JsonObject()
                          .Int("hosts", geo.hosts)
                          .Int("nodes", geo.nodes)
                          .Int("footprint_pages", geo.footprint_pages)
                          .Int("accesses_per_host", geo.accesses_per_host)
                          .Int("slab_pages", geo.slab_pages))
      .Obj("tiering",
           bench::JsonObject()
               .Raw("cxl_ratios", R"(["1/8", "1/4", "1/2"])")
               .Num("migration_bandwidth_fraction", kMigrationFraction, 2)
               .Str("workload", "scrambled-zipf-0.99, zero think"));
  for (const TierResult& r : rows) {
    doc.Obj(VariantKey(r.variant), Row(geo, r));
  }
  // Headline: per-ratio migrator effect - fast-tier hit ratio gained and
  // demand p99 speedup of migrator-on over migrator-off.
  bench::JsonObject improvement;
  for (const size_t denom : kRatioDenoms) {
    const TierResult* off = Find(rows, denom, false);
    const TierResult* on = Find(rows, denom, true);
    if (off == nullptr || on == nullptr) {
      continue;
    }
    const std::string ratio = "cxl_1_" + std::to_string(denom);
    improvement
        .Num(ratio + "_hit_ratio_gain",
             on->FastHitRatio() - off->FastHitRatio(), 4)
        .Num(ratio + "_demand_p99_speedup",
             on->P99() == 0 ? 0.0
                            : static_cast<double>(off->P99()) /
                                  static_cast<double>(on->P99()),
             3);
  }
  doc.Obj("improvement", improvement);
  return bench::WriteJsonFile(path, doc);
}

int Run(const bench::BenchArgs& args) {
  const BenchGeometry geo = args.smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 17 (extension): tiered far memory with a hot/cold migrator",
      "4 hosts, scrambled-zipf-0.99 storms; DRAM / CXL-like tier / fabric "
      "remote / SSD, sweeping CXL:footprint ratio x background migrator "
      "on/off (migration bandwidth-capped at 25% per link)");

  std::vector<TierResult> rows;
  rows.push_back(RunOnce(geo, {/*tiered=*/false, 0, false}));
  bool exported = true;
  for (const size_t denom : kRatioDenoms) {
    for (const bool migrator : {false, true}) {
      // The 1/4-ratio migrator-on run is the headline variant: it carries
      // the observability exports.
      const bool headline = denom == 4 && migrator;
      rows.push_back(RunOnce(geo, {/*tiered=*/true, denom, migrator},
                             headline ? &args : nullptr));
      exported = exported && rows.back().exported;
    }
  }

  TextTable table;
  table.SetHeader({"cxl ratio", "migrator", "fast-hit ratio", "p50(us)",
                   "p99(us)", "demand qdelay(us)", "migrations"});
  for (const TierResult& r : rows) {
    PrintRow(table, r);
  }
  std::printf("%s\n", table.Render().c_str());
  const TierResult* off = Find(rows, 4, false);
  const TierResult* on = Find(rows, 4, true);
  if (off != nullptr && on != nullptr) {
    std::printf(
        "cxl=1/4 footprint: fast-tier hit ratio %.3f -> %.3f, demand p99 "
        "%.2f us -> %.2f us with the migrator on\n\n",
        off->FastHitRatio(), on->FastHitRatio(), ToUs(off->P99()),
        ToUs(on->P99()));
  }

  const bool written = WriteJson(args.json_path, geo, rows, args.smoke);
  return written && exported ? 0 : 1;
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  return leap::Run(leap::bench::ParseBenchArgs(argc, argv, "BENCH_tier.json"));
}
