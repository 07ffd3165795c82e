// Steady-state hot-path throughput: wall-clock simulated accesses/sec.
//
// Drives Machine::Access directly (no result histograms) over the standard
// micro geometry: the two micro workloads — Sequential and Zipf(0.99) — on
// the full Leap stack (eager eviction), plus Sequential on the default
// read-ahead stack, whose lazy eviction leaves consumed entries for kswapd.
// Each row runs kRepeats times on a fresh machine and reports the median,
// the minimum and the spread (q3 - q1) / median of its accesses/sec; every
// repeat must reproduce the row's determinism fingerprint. Emits
// BENCH_hotpath.json recording the measured numbers next to the
// pre-refactor baseline, so the repo's perf trajectory is auditable (see
// EXPERIMENTS.md), and a per-row determinism fingerprint.
#include <algorithm>
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
constexpr size_t kRepeats = 5;

struct HotpathResult {
  double accesses_per_sec = 0.0;
  // Determinism fingerprint: final simulated time plus hot counters.
  SimTimeNs end_sim_time = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t prefetch_hits = 0;

  bool SameFingerprint(const HotpathResult& o) const {
    return end_sim_time == o.end_sim_time && cache_hits == o.cache_hits &&
           cache_misses == o.cache_misses && prefetch_hits == o.prefetch_hits;
  }
};

// Accesses/sec over a row's repeats.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double iqr_over_median = 0.0;  // (q3 - q1) / median
};

// Quartile i (1..3) of sorted `v`, as Python's statistics.quantiles(v, n=4)
// computes it (the default "exclusive" method) - the definition leapbench
// and EXPERIMENTS.md use for spread.
double Quartile(const std::vector<double>& v, size_t i) {
  const size_t m = v.size() + 1;
  const size_t j = std::clamp<size_t>(i * m / 4, 1, v.size() - 1);
  const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
  return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
}

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Spread out;
  const size_t n = v.size();
  out.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  out.min = v.front();
  out.iqr_over_median = (Quartile(v, 3) - Quartile(v, 1)) / out.median;
  return out;
}

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
// pre-refactor baseline (0) report no speedup. `result` is the first
// repeat's (every repeat's fingerprint is the same); `speed` summarizes
// the accesses/sec of all repeats.
struct Row {
  const char* name;
  const char* key;
  double baseline;
  MachineConfig config;
  const std::vector<Vpn>* vpns;
  HotpathResult result;
  Spread speed;
};

void PrintRow(const Row& row) {
  const HotpathResult& r = row.result;
  std::printf("%-18s %12.0f accesses/sec median of %zu (min %.0f, "
              "spread %.3f)",
              row.name, row.speed.median, kRepeats, row.speed.min,
              row.speed.iqr_over_median);
  if (row.baseline > 0.0) {
    std::printf("  (%.2fx vs baseline %.0f)", row.speed.median / row.baseline,
                row.baseline);
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
  std::fprintf(f, "  \"repeats\": %zu,\n", kRepeats);
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
                 rows[i].speed.median, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"spread\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Spread& sp = rows[i].speed;
    std::fprintf(f, "    \"%s\": {\"median\": %.0f, \"min\": %.0f, "
                    "\"iqr_over_median\": %.4f}%s\n",
                 rows[i].key, sp.median, sp.min, sp.iqr_over_median,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup\": {");
  const char* sep = "\n";
  for (const Row& row : rows) {
    if (row.baseline > 0.0) {
      std::fprintf(f, "%s    \"%s\": %.3f", sep, row.key,
                   row.speed.median / row.baseline);
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

// Runs every row kRepeats times, rows interleaved within each repeat so
// host-load drift spreads across rows instead of landing on one. Returns
// false when a repeat's fingerprint differs from the row's first.
bool MeasureRows(std::vector<Row>& rows) {
  std::vector<std::vector<double>> speeds(rows.size());
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const HotpathResult r = RunWorkload(rows[i].config, *rows[i].vpns);
      if (rep == 0) {
        rows[i].result = r;
      } else if (!r.SameFingerprint(rows[i].result)) {
        std::fprintf(stderr, "%s: repeat %zu changed the fingerprint\n",
                     rows[i].name, rep);
        return false;
      }
      speeds[i].push_back(r.accesses_per_sec);
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].speed = SpreadOf(speeds[i]);
  }
  return true;
}

int Run(const std::string& json_path) {
  bench::PrintHeader(
      "Hot-path throughput - wall-clock simulated accesses/sec",
      "Leap's data-path work is O(1) per fault; the simulator's access path "
      "must be allocation-free to measure at scale");
  const MachineConfig leap = LeapVmmConfig(bench::kMicroFrames, 42);
  const std::vector<Vpn> sequential = SequentialVpns();
  const std::vector<Vpn> zipf = ZipfVpns();
  std::vector<Row> rows = {
      {"sequential", "sequential", kBaselineSequentialAps, leap, &sequential,
       {}, {}},
      {"zipf-0.99", "zipf", kBaselineZipfAps, leap, &zipf, {}, {}},
      {"default-sequential", "default_sequential", /*baseline=*/0.0,
       DefaultVmmConfig(PrefetchKind::kReadAhead, bench::kMicroFrames, 42),
       &sequential, {}, {}},
  };
  if (!MeasureRows(rows)) {
    return 1;
  }
  for (const Row& row : rows) {
    PrintRow(row);
  }
  WriteJson(json_path, rows);
  return 0;
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  return leap::Run(argc > 1 ? argv[1] : "BENCH_hotpath.json");
}
