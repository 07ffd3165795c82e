// Figure 1: average time spent in each stage of the remote-page data path,
// default (block-layer) path vs Leap's lean path, plus device averages.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/blocklayer/request_queue.h"
#include "src/rdma/host_agent.h"
#include "src/stats/table.h"

namespace leap {
namespace {

// Measures the mean of a sampling function over n draws.
template <typename Fn>
double MeanUs(Fn&& fn, int n = 20000) {
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    sum += fn();
  }
  return sum / n / 1000.0;
}

void Run() {
  bench::PrintHeader(
      "Figure 1 - data path stage latencies (averages, us)",
      "cache hit 0.27 | bio prep 10.04 | request queue 21.88 | dispatch 2.1 "
      "| HDD 91.48 | SSD 20 | RDMA 4.3");

  Rng rng(1);

  const BlockLayerConfig block;
  const auto prep = LatencyModel::LogNormal(block.prep_median_ns,
                                            block.prep_sigma,
                                            block.prep_min_ns);
  const auto queue = LatencyModel::LogNormal(block.queue_median_ns,
                                             block.queue_sigma,
                                             block.queue_min_ns);
  const auto dispatch = LatencyModel::Normal(block.dispatch_mean_ns,
                                             block.dispatch_stddev_ns,
                                             block.dispatch_min_ns);

  Hdd hdd;
  Ssd ssd;
  RemoteAgent node(0, 4096);
  HostAgent remote(HostAgentConfig{}, {&node}, 7);

  auto device_mean = [&rng](BackingStore& store) {
    double sum = 0;
    SimTimeNs now = 0;
    const int n = 4000;
    Rng addr_rng(99);
    for (int i = 0; i < n; ++i) {
      const IoRequest req = DemandRead(addr_rng.NextU64(1 << 22));
      SimTimeNs ready = 0;
      store.ReadPages({&req, 1}, now, rng, {&ready, 1});
      sum += static_cast<double>(ready - now);
      now = ready + 300000;
    }
    return sum / n / 1000.0;
  };

  const DefaultPathConfig vmm_hit;
  const LeapPathConfig leap_cfg;

  TextTable table;
  table.SetHeader({"stage", "paper(us)", "measured(us)"});
  table.AddRow({"page cache hit (optimized/Leap)", "0.27",
                std::to_string(leap_cfg.hit_cost_ns / 1000.0)});
  table.AddRow({"D-VMM cache hit floor (default)", "~1.0",
                std::to_string(vmm_hit.hit_cost_ns / 1000.0)});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f",
                MeanUs([&] { return static_cast<double>(prep.Sample(rng)); }));
  table.AddRow({"bio preparation / block-layer entry", "10.04", buf});
  std::snprintf(buf, sizeof(buf), "%.2f",
                MeanUs([&] { return static_cast<double>(queue.Sample(rng)); }));
  table.AddRow({"request queue: insert/merge/sort/stage", "21.88", buf});
  std::snprintf(
      buf, sizeof(buf), "%.2f",
      MeanUs([&] { return static_cast<double>(dispatch.Sample(rng)); }));
  table.AddRow({"dispatch queue handoff", "2.1", buf});
  std::snprintf(buf, sizeof(buf), "%.2f", kLeapEntryMeanNs / 1000.0);
  table.AddRow({"Leap lean entry (replaces all three)", "~2.1", buf});
  std::snprintf(buf, sizeof(buf), "%.2f", device_mean(hdd));
  table.AddRow({"HDD 4KB read", "91.48", buf});
  std::snprintf(buf, sizeof(buf), "%.2f", device_mean(ssd));
  table.AddRow({"SSD 4KB read", "20", buf});
  std::snprintf(buf, sizeof(buf), "%.2f", device_mean(remote));
  table.AddRow({"RDMA 4KB read", "4.3", buf});
  std::printf("%s\n", table.Render().c_str());

  // End-to-end check: stride-10 misses through both full paths.
  auto default_micro =
      bench::RunMicro(DefaultVmmConfig(PrefetchKind::kReadAhead,
                                       bench::kMicroFrames, 42),
                      bench::MicroPattern::kStride10, 60000);
  auto leap_micro = bench::RunMicro(
      LeapVmmConfig(bench::kMicroFrames, 42), bench::MicroPattern::kStride10,
      60000);
  std::printf("end-to-end miss average: default %.1f us (paper ~38.3), "
              "leap %.1f us (paper ~6.4)\n",
              default_micro.run.miss_latency.Mean() / 1000.0,
              leap_micro.run.miss_latency.Mean() / 1000.0);
}

}  // namespace
}  // namespace leap

int main() {
  leap::Run();
  return 0;
}
