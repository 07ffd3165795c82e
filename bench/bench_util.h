// Shared setup for the figure/table reproduction benches.
//
// Every binary prints (a) the paper's reported numbers for the experiment
// and (b) the numbers this simulation regenerates, in the same units, so
// EXPERIMENTS.md can be audited against raw bench output.
#ifndef LEAP_BENCH_BENCH_UTIL_H_
#define LEAP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/cluster.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/workload/app_models.h"
#include "src/workload/cluster_mix.h"
#include "src/workload/patterns.h"

namespace leap {
namespace bench {

// Standard microbenchmark geometry (scaled-down from the paper's 2 GB
// working set / 1 GB memory): 16k-page (64 MB) footprint at 50% memory.
inline constexpr size_t kMicroFootprintPages = 16 * 1024;
inline constexpr size_t kMicroFrames = 1 << 16;

struct MicroResult {
  RunResult run;
  std::unique_ptr<Machine> machine;
};

enum class MicroPattern { kSequential, kStride10 };

// Populates the working set sequentially (paper setup), then measures
// `accesses` of the given pattern at 50% memory.
inline MicroResult RunMicro(const MachineConfig& config, MicroPattern pattern,
                            size_t accesses, size_t footprint_pages =
                                                  kMicroFootprintPages) {
  MicroResult out;
  out.machine = std::make_unique<Machine>(config);
  const Pid pid = out.machine->CreateProcess(footprint_pages / 2);
  const SimTimeNs warm_end = WarmUp(*out.machine, pid, footprint_pages);
  RunConfig run;
  run.total_accesses = accesses;
  run.start_time_ns = warm_end + 10 * kNsPerMs;
  if (pattern == MicroPattern::kSequential) {
    SequentialStream stream(footprint_pages, 750);
    out.run = RunApp(*out.machine, pid, stream, run);
  } else {
    StrideStream stream(footprint_pages, 10, 750);
    out.run = RunApp(*out.machine, pid, stream, run);
  }
  return out;
}

// Runs one of the four application models at `memory_pct` of its footprint
// with a sequential warm-up pass, returning the result and the machine for
// counter inspection.
struct AppResult {
  RunResult run;
  std::unique_ptr<Machine> machine;
};

inline AppResult RunAppModel(const MachineConfig& config, size_t app_index,
                             size_t memory_pct, size_t accesses,
                             SimTimeNs time_cap_ns = 0,
                             uint64_t workload_seed = 1234) {
  AppResult out;
  out.machine = std::make_unique<Machine>(config);
  const AppSpec& spec = kApps[app_index];
  const size_t limit = spec.footprint_pages * memory_pct / 100;
  const Pid pid = out.machine->CreateProcess(limit);
  auto stream = spec.make(spec.footprint_pages, workload_seed);
  const SimTimeNs warm_end = WarmUp(*out.machine, pid, spec.footprint_pages);
  RunConfig run;
  run.total_accesses = accesses;
  run.start_time_ns = warm_end + 10 * kNsPerMs;
  run.time_cap_ns = time_cap_ns;
  out.run = RunApp(*out.machine, pid, *stream, run);
  return out;
}

// --- BENCH_*.json schema -------------------------------------------------
// Version of the JSON layout shared by every bench emitter. Bumped when a
// key is renamed/removed (additions are compatible); consumers that parse
// BENCH_*.json key off this instead of sniffing for fields.
//   v1: pre-PR-7 (implicit, no version key)
//   v2: schema_version + run_config preamble, --trace / --timeseries
inline constexpr int kBenchSchemaVersion = 2;

// Run-config echo: enough to reproduce the run that produced a JSON (the
// numbers are seed-deterministic, so this IS the provenance).
struct BenchRunInfo {
  const char* bench = "";      // binary name
  uint64_t seed = 0;           // cluster/machine master seed
  size_t hosts = 0;
  size_t nodes = 0;
  const char* scheduler = "";  // link scheduler kind; "" = n/a
  const char* placer = "";     // slab-placer kind; "" = n/a (single host)
  // Hardware threads the run could use; recorded (non-zero) only by
  // benches that report wall-clock numbers, where it qualifies them.
  unsigned nproc = 0;
};

// Standard preamble: schema version, bench name, run config.
inline void AddSchemaPreamble(JsonObject& doc, const BenchRunInfo& info) {
  JsonObject run_config;
  run_config.Int("seed", info.seed)
      .Int("hosts", info.hosts)
      .Int("nodes", info.nodes)
      .Str("scheduler", info.scheduler)
      .Str("placer", info.placer);
  if (info.nproc != 0) {
    run_config.Int("nproc", info.nproc);
  }
  doc.Int("schema_version", kBenchSchemaVersion)
      .Str("bench", info.bench)
      .Obj("run_config", run_config);
}

// Streaming form for benches that print their JSON line by line.
inline void WriteSchemaPreamble(FILE* f, const BenchRunInfo& info) {
  JsonObject preamble;
  AddSchemaPreamble(preamble, info);
  std::fprintf(f, "  %s,\n", preamble.Join(",\n  ").c_str());
}

// The head of every cluster bench's JSON: "mode", then the preamble.
inline JsonObject BenchJson(bool smoke, const BenchRunInfo& info) {
  JsonObject doc;
  doc.Str("mode", smoke ? "smoke" : "full");
  AddSchemaPreamble(doc, info);
  return doc;
}

// --- command line --------------------------------------------------------
// Shared flag vocabulary for the cluster benches:
//   --smoke               tiny CI configuration
//   --trace[=path]        flight-record the headline variant and export
//                         chrome://tracing JSON (default <out>.trace.json)
//   --timeseries[=path]   periodic stats sampling on the headline variant,
//                         written as JSONL (default <out>.timeseries.jsonl)
//   <positional>          output JSON path
// Any other --flag prints a usage line and exits 2.
struct BenchArgs {
  bool smoke = false;
  bool trace = false;
  bool timeseries = false;
  std::string json_path;
  std::string trace_path;
  std::string timeseries_path;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv,
                                const char* default_json) {
  BenchArgs args;
  args.json_path = default_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.trace = true;
      args.trace_path = arg.substr(8);
    } else if (arg == "--timeseries") {
      args.timeseries = true;
    } else if (arg.rfind("--timeseries=", 0) == 0) {
      args.timeseries = true;
      args.timeseries_path = arg.substr(13);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--smoke] [--trace[=path]] "
                   "[--timeseries[=path]] [output.json]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    } else {
      args.json_path = arg;
    }
  }
  std::string stem = args.json_path;
  if (stem.size() > 5 && stem.rfind(".json") == stem.size() - 5) {
    stem.resize(stem.size() - 5);
  }
  if (args.trace && args.trace_path.empty()) {
    args.trace_path = stem + ".trace.json";
  }
  if (args.timeseries && args.timeseries_path.empty()) {
    args.timeseries_path = stem + ".timeseries.jsonl";
  }
  return args;
}

// --- cluster runs ----------------------------------------------------------
// The paper's setup on every host of a cluster: create the process, warm
// its working set sequentially, then run the measured stream.

// Gap between the end of the last warm-up and the measured run.
inline constexpr SimTimeNs kRunGapNs = 10 * kNsPerMs;

// One process on one cluster host.
struct ClusterApp {
  size_t host = 0;
  size_t limit_pages = 0;  // DRAM limit for CreateProcess
  size_t warm_pages = 0;   // pages the sequential warm-up touches
  std::unique_ptr<AccessStream> stream;
  Pid pid = 0;  // set by WarmApps
};

// Creates and warms each app in list order (hosts ascending), each
// warm-up starting where the previous one ended; returns the last end.
inline SimTimeNs WarmApps(Cluster& cluster, std::vector<ClusterApp>& apps) {
  SimTimeNs warm_end = 0;
  for (ClusterApp& app : apps) {
    Machine& host = cluster.host(app.host);
    app.pid = host.CreateProcess(app.limit_pages);
    warm_end = WarmUp(host, app.pid, app.warm_pages, warm_end);
  }
  return warm_end;
}

// Runs `accesses` of every app from warm_end + kRunGapNs. The k-th app on
// host h (k from 0) is seeded 100 + 100k + h.
inline std::vector<RunResult> RunApps(Cluster& cluster,
                                      const std::vector<ClusterApp>& apps,
                                      size_t accesses, SimTimeNs warm_end) {
  std::vector<size_t> on_host(cluster.num_hosts(), 0);
  std::vector<ClusterAppSpec> specs;
  for (const ClusterApp& app : apps) {
    RunConfig run;
    run.total_accesses = accesses;
    run.start_time_ns = warm_end + kRunGapNs;
    run.seed = 100 + 100 * on_host[app.host]++ + app.host;
    specs.push_back({app.host, app.pid, app.stream.get(), run});
  }
  return cluster.Run(std::move(specs));
}

// fig13's workload mix (zipf / sequential / trace per host), each process
// at half its footprint in DRAM.
inline constexpr const char* kClusterMixJson =
    R"json(["zipf-0.99", "sequential", "trace(stride-8)"])json";

inline std::vector<ClusterApp> ClusterMixApps(size_t hosts,
                                              size_t footprint_pages) {
  std::vector<ClusterApp> apps;
  for (size_t h = 0; h < hosts; ++h) {
    apps.push_back({h, footprint_pages / 2, footprint_pages,
                    MakeClusterMixStream(h, footprint_pages)});
  }
  return apps;
}

// What the benches read back from one cluster run.
struct RunSummary {
  Histogram miss_latency;    // every app's demand-miss latency
  Histogram remote_latency;  // every host's remote-access latency
  SimTimeNs max_completion_ns = 0;
  uint64_t accesses = 0;
  ClusterStats stats;

  uint64_t Total(CounterId id) const { return stats.totals.Get(id); }
  double AccessesPerSimSec() const {
    return max_completion_ns == 0
               ? 0.0
               : static_cast<double>(accesses) / ToSec(max_completion_ns);
  }
};

inline RunSummary Summarize(const Cluster& cluster,
                            const std::vector<RunResult>& results) {
  RunSummary out;
  for (const RunResult& r : results) {
    out.miss_latency.Merge(r.miss_latency);
    out.max_completion_ns = std::max(out.max_completion_ns, r.completion_ns);
    out.accesses += r.accesses;
  }
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    out.remote_latency.Merge(cluster.host_remote_latency(h));
  }
  out.stats = cluster.Stats();
  return out;
}

// Read-path mitigation counters; all zero on a fault-free run.
inline JsonObject ResilienceJson(const Counters& totals) {
  return JsonObject()
      .Int("read_retries", totals.Get(counter::kReadRetries))
      .Int("deadline_misses", totals.Get(counter::kReadDeadlineMisses))
      .Int("hedged_reads", totals.Get(counter::kHedgedReads))
      .Int("hedge_wins", totals.Get(counter::kHedgeWins))
      .Int("reads_rerouted", totals.Get(counter::kReadsRerouted))
      .Int("gray_transitions", totals.Get(counter::kGrayTransitions));
}

// Turns on the recorders `args` asked for, on a bench's headline run.
// Pure observation: no measured number moves (pinned by obs_trace_test).
inline void EnableObservability(ClusterConfig& config, const BenchArgs& args) {
  config.trace.enabled = args.trace;
  config.sampler.enabled = args.timeseries;
}

// Writes the trace and time series the run recorded, then dumps its
// stats to stdout. False if a file could not be written.
[[nodiscard]] inline bool ExportObservability(const Cluster& cluster,
                                              const BenchArgs& args) {
  bool ok = true;
  const auto finish = [&ok](std::ofstream& out, const std::string& path,
                            const std::string& detail) {
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      ok = false;
    } else {
      std::printf("wrote %s (%s)\n", path.c_str(), detail.c_str());
    }
  };
  if (const TraceRecorder* trace = cluster.trace(); trace != nullptr) {
    std::ofstream out(args.trace_path);
    trace->ExportChromeTrace(out);
    finish(out, args.trace_path,
          std::to_string(trace->size()) + " events buffered, " +
              std::to_string(trace->dropped()) + " dropped");
  }
  if (const StatsSampler* sampler = cluster.sampler(); sampler != nullptr) {
    std::ofstream out(args.timeseries_path);
    sampler->WriteJsonl(out);
    finish(out, args.timeseries_path,
          std::to_string(sampler->samples().size()) + " samples");
  }
  cluster.DumpStats(std::cout);
  return ok;
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& paper_summary) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_summary.c_str());
  std::printf("==============================================================\n");
}

inline std::string FormatCompletion(const RunResult& r) {
  if (!r.finished) {
    return "DNF";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ToSec(r.completion_ns));
  return buf;
}

}  // namespace bench
}  // namespace leap

#endif  // LEAP_BENCH_BENCH_UTIL_H_
