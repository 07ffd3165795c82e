// Figure 18 (engine scaling): the fig13 workload mix pushed to cluster
// sizes one event queue cannot sustain, one shard vs many at equal host
// count.
//
// Two stories in one sweep:
//  - simulator throughput (wall-clock accesses/s): at one shard every
//    access works on state sized to the whole cluster (one app heap, one
//    event heap, every host's and node's memory), so throughput decays as
//    the cluster grows; sharding keeps per-shard state constant and runs
//    the shards on parallel workers. The speedup at equal host count is
//    the headline number; run_config.nproc records the cores it had.
//    Warm-up wall time (wall_ms_warm_*) is recorded beside it: warm-up
//    runs host after host on the shared timeline, so it is where any
//    per-host background cost would grow with hosts^2.
//  - simulator memory: the stdout table's last column is the process's
//    peak resident set (getrusage) once each scale has run. Scales run
//    in ascending size, so each row's peak is that scale's own.
//  - determinism: every simulation-derived number in the JSON is a pure
//    function of (seed, shard count). Wall-clock keys are all prefixed
//    "wall" and placed on their own lines so CI's byte-identical rerun
//    guard can strip them (grep -v '"wall') and cmp the rest.
//
// The "single_queue" block of each scale is the shards = 1 run.
//
// Usage: fig18_scale [--smoke] [output.json]
//   --smoke   tiny configuration for CI (4/8 hosts)
//   output    results JSON (default BENCH_scale.json)
// (--trace and --timeseries are accepted but record nothing here.)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/cluster.h"
#include "src/stats/table.h"

namespace leap {
namespace {

struct BenchGeometry {
  std::vector<size_t> host_scales;
  // Largest scale that also runs the one-shard baseline (the baseline is
  // the slow configuration; the sharded sweep may go further).
  size_t baseline_max_hosts = 0;
  size_t hosts_per_node = 4;
  size_t footprint_pages = 2048;
  size_t total_frames = 2048;
  size_t accesses_per_host = 2000;
  size_t slab_pages = 64;
  size_t hosts_per_shard = 64;
  size_t window_mult = 32;   // window = lookahead * mult (fewer barriers)
  size_t mirror_every = 16;  // cross-shard replica cadence
};

BenchGeometry FullGeometry() {
  BenchGeometry geo;
  geo.host_scales = {32, 64, 128, 256, 512, 1024, 2048, 4096};
  geo.baseline_max_hosts = 4096;
  return geo;
}

BenchGeometry SmokeGeometry() {
  BenchGeometry geo;
  geo.host_scales = {4, 8};
  geo.baseline_max_hosts = 8;
  geo.footprint_pages = 512;
  geo.total_frames = 512;
  geo.accesses_per_host = 1500;
  geo.slab_pages = 32;
  geo.hosts_per_shard = 4;
  geo.window_mult = 4;
  geo.mirror_every = 8;
  return geo;
}

ClusterConfig MakeBase(const BenchGeometry& geo, size_t hosts) {
  ClusterConfig config;
  config.hosts = hosts;
  config.nodes = std::max<size_t>(1, hosts / geo.hosts_per_node);
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.total_frames, /*seed=*/42);
  config.host.host_agent.slab_pages = geo.slab_pages;
  config.placement = PlacementPolicy::kPowerOfTwo;
  config.seed = 91;
  return config;
}

size_t ShardsFor(const BenchGeometry& geo, size_t hosts) {
  return std::max<size_t>(2, hosts / geo.hosts_per_shard);
}

// Deterministic per-run results plus the (non-deterministic) wall times
// of the measured run and of the warm-up before it.
struct EngineResult {
  bench::RunSummary run;
  uint64_t windows_run = 0;
  double wall_ms = 0.0;
  double warm_wall_ms = 0.0;
};

// The process's peak resident set so far, in MiB (ru_maxrss is in KiB on
// Linux).
double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Warm + run the fig13 workload mix (zipf / sequential / trace per host)
// at `shards` shards; every shard count sees byte-identical specs.
EngineResult RunWorkload(const BenchGeometry& geo, size_t hosts,
                         size_t shards) {
  ClusterConfig config = MakeBase(geo, hosts);
  config.shards = shards;
  config.window_ns = FabricLookaheadNs(config.fabric) * geo.window_mult;
  config.mirror_every = geo.mirror_every;
  Cluster cluster(config);
  std::vector<bench::ClusterApp> apps =
      bench::ClusterMixApps(hosts, geo.footprint_pages);
  EngineResult out;
  const auto warm_start = std::chrono::steady_clock::now();
  const SimTimeNs warm_end = bench::WarmApps(cluster, apps);
  out.warm_wall_ms = MsSince(warm_start);
  const auto wall_start = std::chrono::steady_clock::now();
  const auto results =
      bench::RunApps(cluster, apps, geo.accesses_per_host, warm_end);
  out.wall_ms = MsSince(wall_start);
  out.run = bench::Summarize(cluster, results);
  out.windows_run = cluster.windows_run();
  return out;
}

struct ScaleRow {
  size_t hosts = 0;
  size_t shards = 0;
  bool has_baseline = false;
  EngineResult sharded;
  EngineResult single_queue;
};

std::string EngineJson(const EngineResult& r, bool sharded) {
  bench::JsonObject out;
  out.Int("remote_reads", r.run.Total(counter::kRemoteReads))
      .Int("fabric_ops", r.run.stats.fabric_ops)
      .Int("p50_remote_ns", r.run.remote_latency.Percentile(0.5))
      .Int("p99_remote_ns", r.run.remote_latency.Percentile(0.99))
      .Num("agg_accesses_per_sim_sec", r.run.AccessesPerSimSec(), 0)
      .Int("max_completion_ns", r.run.max_completion_ns);
  if (sharded) {
    out.Int("cross_shard_sent", r.run.Total(counter::kCrossShardSent))
        .Int("cross_shard_applied", r.run.Total(counter::kCrossShardApplied))
        .Int("windows_run", r.windows_run);
  }
  return out.Line();
}

// Each scale is one multi-line row: the deterministic keys first, then
// the wall-clock keys on their own lines, all prefixed "wall": CI's
// byte-identical rerun guard strips them with grep -v '"wall' before
// cmp, so everything else must be seed-deterministic.
std::string ScaleJson(const ScaleRow& row) {
  bench::JsonObject rest;
  rest.Raw("sharded", EngineJson(row.sharded, /*sharded=*/true))
      .Raw("single_queue", row.has_baseline
                               ? EngineJson(row.single_queue, false)
                               : "null")
      .Num("wall_ms_sharded", row.sharded.wall_ms, 1)
      .Num("wall_ms_warm_sharded", row.sharded.warm_wall_ms, 1);
  if (row.has_baseline) {
    rest.Num("wall_ms_single_queue", row.single_queue.wall_ms, 1)
        .Num("wall_ms_warm_single_queue", row.single_queue.warm_wall_ms, 1)
        .Num("wall_speedup",
             row.sharded.wall_ms <= 0.0
                 ? 0.0
                 : row.single_queue.wall_ms / row.sharded.wall_ms,
             2);
  }
  rest.Bool("end", true);
  const bench::JsonObject head =
      bench::JsonObject().Int("hosts", row.hosts).Int("shards", row.shards);
  std::string json(1, '{');
  json += head.Join(", ");
  json += ",\n     ";
  json += rest.Join(",\n     ");
  return json += '}';
}

bool WriteJson(const std::string& path, const BenchGeometry& geo,
               const std::vector<ScaleRow>& rows, bool smoke) {
  bench::JsonObject doc = bench::BenchJson(
      smoke, {"fig18_scale", /*seed=*/91, geo.host_scales.back(),
              geo.host_scales.back() / geo.hosts_per_node, "fifo",
              PlacementPolicyName(PlacementPolicy::kPowerOfTwo),
              std::thread::hardware_concurrency()});
  std::vector<std::string> scales;
  for (const ScaleRow& row : rows) {
    scales.push_back(ScaleJson(row));
  }
  doc.Obj("geometry", bench::JsonObject()
                          .Int("hosts_per_node", geo.hosts_per_node)
                          .Int("footprint_pages", geo.footprint_pages)
                          .Int("accesses_per_host", geo.accesses_per_host)
                          .Int("slab_pages", geo.slab_pages)
                          .Int("hosts_per_shard", geo.hosts_per_shard)
                          .Int("window_mult", geo.window_mult)
                          .Int("mirror_every", geo.mirror_every))
      .Raw("workload_mix", bench::kClusterMixJson)
      .Raw("scales", bench::JsonRows(scales));
  return bench::WriteJsonFile(path, doc);
}

int Run(const bench::BenchArgs& args) {
  const BenchGeometry geo = args.smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 18 (engine scaling): one shard vs many at 32 -> 4096 hosts",
      "at one shard every access works on cluster-sized state (app heap, "
      "event heap, host memory); sharding keeps per-shard state constant "
      "and runs shards in parallel, so throughput holds as hosts grow");

  std::vector<ScaleRow> rows;
  TextTable table;
  table.SetHeader({"hosts", "shards", "1q wall(s)", "sharded wall(s)",
                   "speedup", "1q Macc/wall-s", "sharded Macc/wall-s",
                   "1q warm(s)", "sharded warm(s)", "peak RSS (MiB)"});
  for (size_t hosts : geo.host_scales) {
    ScaleRow row;
    row.hosts = hosts;
    row.shards = ShardsFor(geo, hosts);
    row.sharded = RunWorkload(geo, hosts, row.shards);
    row.has_baseline = hosts <= geo.baseline_max_hosts;
    if (row.has_baseline) {
      row.single_queue = RunWorkload(geo, hosts, /*shards=*/1);
    }
    const double total_acc =
        static_cast<double>(hosts * geo.accesses_per_host);
    char hs[32], sh[32], oneq[32], shard[32], speed[32], thr1[32], thr2[32],
        warm1[32], warm2[32], rss[32];
    std::snprintf(hs, sizeof(hs), "%zu", hosts);
    std::snprintf(sh, sizeof(sh), "%zu", row.shards);
    if (row.has_baseline) {
      std::snprintf(oneq, sizeof(oneq), "%.1f",
                    row.single_queue.wall_ms / 1000.0);
      std::snprintf(speed, sizeof(speed), "%.2fx",
                    row.single_queue.wall_ms / row.sharded.wall_ms);
      std::snprintf(thr1, sizeof(thr1), "%.2f",
                    total_acc / row.single_queue.wall_ms / 1000.0);
      std::snprintf(warm1, sizeof(warm1), "%.2f",
                    row.single_queue.warm_wall_ms / 1000.0);
    } else {
      std::snprintf(oneq, sizeof(oneq), "-");
      std::snprintf(speed, sizeof(speed), "-");
      std::snprintf(thr1, sizeof(thr1), "-");
      std::snprintf(warm1, sizeof(warm1), "-");
    }
    std::snprintf(shard, sizeof(shard), "%.1f", row.sharded.wall_ms / 1000.0);
    std::snprintf(thr2, sizeof(thr2), "%.2f",
                  total_acc / row.sharded.wall_ms / 1000.0);
    std::snprintf(warm2, sizeof(warm2), "%.2f",
                  row.sharded.warm_wall_ms / 1000.0);
    std::snprintf(rss, sizeof(rss), "%.0f", PeakRssMiB());
    table.AddRow({hs, sh, oneq, shard, speed, thr1, thr2, warm1, warm2, rss});
    rows.push_back(row);
  }
  std::printf("%s\n", table.Render().c_str());

  return WriteJson(args.json_path, geo, rows, args.smoke) ? 0 : 1;
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  return leap::Run(leap::bench::ParseBenchArgs(argc, argv, "BENCH_scale.json"));
}
