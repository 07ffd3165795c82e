// Steady-state hot-path throughput: wall-clock simulated accesses/sec.
//
// Drives Machine::Access directly (no result histograms) over the standard
// micro geometry: the two micro workloads — Sequential and Zipf(0.99) — on
// the full Leap stack (eager eviction), plus Sequential on the default
// read-ahead stack, whose lazy eviction leaves consumed entries for kswapd.
// Emits BENCH_hotpath.json recording the measured numbers next to the
// pre-refactor baseline, so the repo's perf trajectory is auditable (see
// EXPERIMENTS.md), and a per-row determinism fingerprint.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/zipf.h"

namespace leap {
namespace {

// Accesses/sec measured on this machine at the pre-refactor seed commit
// (std::unordered_map containers, std::list LRU, std::function event heap,
// per-miss vector allocation), using this same bench (pre-generated access
// sequences). Re-baseline when the hardware changes.
constexpr double kBaselineSequentialAps = 1680876.0;
constexpr double kBaselineZipfAps = 5113747.0;

constexpr size_t kWarmAccesses = 200'000;
constexpr size_t kMeasuredAccesses = 2'000'000;

struct HotpathResult {
  double accesses_per_sec = 0.0;
  // Determinism fingerprint: final simulated time plus hot counters.
  SimTimeNs end_sim_time = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t prefetch_hits = 0;
};

// Times `accesses` calls to Machine::Access after `warm` untimed ones.
// The access sequence is pre-generated so the timed region contains ONLY
// Machine::Access - workload generation (e.g. the Zipf sampler's pow())
// is not part of what this bench tracks.
HotpathResult Measure(Machine& machine, Pid pid, SimTimeNs start,
                      const std::vector<Vpn>& vpns, size_t warm) {
  SimTimeNs now = start;
  for (size_t i = 0; i < warm; ++i) {
    now += 750;
    now += machine.Access(pid, vpns[i], /*write=*/false, now).latency;
  }
  const size_t accesses = vpns.size() - warm;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = warm; i < vpns.size(); ++i) {
    now += 750;
    now += machine.Access(pid, vpns[i], /*write=*/false, now).latency;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  HotpathResult out;
  out.accesses_per_sec = static_cast<double>(accesses) / secs;
  out.end_sim_time = now;
  out.cache_hits = machine.counters().Get(counter::kCacheHits);
  out.cache_misses = machine.counters().Get(counter::kCacheMisses);
  out.prefetch_hits = machine.counters().Get(counter::kPrefetchHits);
  return out;
}

std::vector<Vpn> SequentialVpns() {
  std::vector<Vpn> vpns(kWarmAccesses + kMeasuredAccesses);
  for (size_t i = 0; i < vpns.size(); ++i) {
    vpns[i] = i % bench::kMicroFootprintPages;
  }
  return vpns;
}

std::vector<Vpn> ZipfVpns() {
  ZipfSampler zipf(bench::kMicroFootprintPages, 0.99);
  Rng rng(7);
  std::vector<Vpn> vpns(kWarmAccesses + kMeasuredAccesses);
  for (Vpn& v : vpns) {
    v = static_cast<Vpn>(zipf.Sample(rng));
  }
  return vpns;
}

HotpathResult RunWorkload(const MachineConfig& config,
                          const std::vector<Vpn>& vpns) {
  Machine machine(config);
  const Pid pid = machine.CreateProcess(bench::kMicroFootprintPages / 2);
  const SimTimeNs warm_end = WarmUp(machine, pid, bench::kMicroFootprintPages);
  return Measure(machine, pid, warm_end + 10 * kNsPerMs, vpns, kWarmAccesses);
}

// One timed row of the bench. `key` names it in the JSON; rows without a
// pre-refactor baseline (0) report no speedup.
struct Row {
  const char* name;
  const char* key;
  double baseline;
  HotpathResult result;
};

void PrintRow(const Row& row) {
  const HotpathResult& r = row.result;
  std::printf("%-18s %12.0f accesses/sec", row.name, r.accesses_per_sec);
  if (row.baseline > 0.0) {
    std::printf("  (%.2fx vs baseline %.0f)",
                r.accesses_per_sec / row.baseline, row.baseline);
  }
  std::printf("\n  fingerprint: sim_end=%llu hits=%llu misses=%llu "
              "prefetch_hits=%llu\n",
              static_cast<unsigned long long>(r.end_sim_time),
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.cache_misses),
              static_cast<unsigned long long>(r.prefetch_hits));
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  bench::WriteSchemaPreamble(
      f, {"micro_hotpath", /*seed=*/42, /*hosts=*/1, /*nodes=*/2, ""});
  std::fprintf(f, "  \"workloads\": [");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", rows[i].name);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"measured_accesses\": %zu,\n", kMeasuredAccesses);
  std::fprintf(f, "  \"baseline\": {\n");
  std::fprintf(f, "    \"note\": \"pre-refactor seed (unordered_map + "
                  "std::list + std::function + per-miss vectors)\"");
  for (const Row& row : rows) {
    if (row.baseline > 0.0) {
      std::fprintf(f, ",\n    \"%s_accesses_per_sec\": %.0f", row.key,
                   row.baseline);
    }
  }
  std::fprintf(f, "\n  },\n");
  std::fprintf(f, "  \"current\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    \"%s_accesses_per_sec\": %.0f%s\n", rows[i].key,
                 rows[i].result.accesses_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup\": {");
  const char* sep = "\n";
  for (const Row& row : rows) {
    if (row.baseline > 0.0) {
      std::fprintf(f, "%s    \"%s\": %.3f", sep, row.key,
                   row.result.accesses_per_sec / row.baseline);
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n  },\n");
  std::fprintf(f, "  \"fingerprint\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const HotpathResult& r = rows[i].result;
    std::fprintf(f, "    \"%s\": {\"sim_end\": %llu, \"hits\": %llu, "
                    "\"misses\": %llu, \"prefetch_hits\": %llu}%s\n",
                 rows[i].key, static_cast<unsigned long long>(r.end_sim_time),
                 static_cast<unsigned long long>(r.cache_hits),
                 static_cast<unsigned long long>(r.cache_misses),
                 static_cast<unsigned long long>(r.prefetch_hits),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

void Run(const std::string& json_path) {
  bench::PrintHeader(
      "Hot-path throughput - wall-clock simulated accesses/sec",
      "Leap's data-path work is O(1) per fault; the simulator's access path "
      "must be allocation-free to measure at scale");
  const MachineConfig leap = LeapVmmConfig(bench::kMicroFrames, 42);
  const std::vector<Vpn> sequential = SequentialVpns();
  std::vector<Row> rows;
  rows.push_back({"sequential", "sequential", kBaselineSequentialAps,
                  RunWorkload(leap, sequential)});
  PrintRow(rows.back());
  rows.push_back(
      {"zipf-0.99", "zipf", kBaselineZipfAps, RunWorkload(leap, ZipfVpns())});
  PrintRow(rows.back());
  rows.push_back(
      {"default-sequential", "default_sequential", /*baseline=*/0.0,
       RunWorkload(DefaultVmmConfig(PrefetchKind::kReadAhead,
                                    bench::kMicroFrames, 42),
                   sequential)});
  PrintRow(rows.back());
  WriteJson(json_path, rows);
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  leap::Run(argc > 1 ? argv[1] : "BENCH_hotpath.json");
  return 0;
}
