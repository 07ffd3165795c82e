// leapbench: the simulator's end-to-end and per-layer benchmark.
//
//   leapbench --workload <leap-stride|default-voltdb|cluster-mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <file.json>]
//
// A run repeats whole rounds (build, populate, run, collect) until
// --seconds of host time have passed, and reports medians over rounds.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds and prints the per-layer metrics, including span self
// times and the tracing overhead. Every run checks its outputs: all apps
// finish every requested access, prefetch feedback balances on every host,
// and every round (traced or not) yields the same simulation fingerprint.
// Human-readable lines go first; the last line is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace leapbench {
namespace {

using leap::CounterId;
namespace counter = leap::counter;

struct Args {
  WorkloadKind workload = WorkloadKind::kLeapStride;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  bool tiny = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto kind = ParseWorkload(value);
      if (!kind) {
        return false;
      }
      args.workload = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0.0 && args.seconds <= 60;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = value[0] - '0';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Peak resident set so far, in KiB.
long PeakRssKiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* clock;  // "host", "sim" or "count"
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, const char* unit,
           const char* clock, std::string note = "") {
    metrics_.push_back({std::move(name), value, unit, clock, std::move(note)});
  }

  void Check(bool ok, const char* what) {
    if (!ok) {
      correct_ = false;
      std::printf("CHECK FAILED: %s\n", what);
    }
  }

  void Print(uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %18.6f %-7s %-5s %s\n", m.name.c_str(), m.value,
                  m.unit, m.clock, m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct_ ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double value = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// Checks every run performs on its rounds' simulated results.
void CheckRounds(const std::vector<const SimResult*>& sims, Report& report) {
  const SimResult& first = *sims.front();
  report.Check(first.unfinished_apps == 0 && first.completed == first.requested,
               "every app finished all requested accesses");
  report.Check(first.imbalanced_hosts == 0,
               "prefetch issued - hits - unused_evicted == unconsumed, "
               "on every host");
  const uint64_t fingerprint = first.Fingerprint();
  bool same = true;
  for (const SimResult* sim : sims) {
    same = same && sim->Fingerprint() == fingerprint;
  }
  report.Check(same, "every round (traced or not) simulates identically");
}

// Sim-clock end-to-end metrics. A percentile is reported only when at
// least 10 samples lie beyond it.
void AddSimMetrics(const SimResult& sim, Report& report, bool tiny) {
  const uint64_t n = sim.remote.count();
  const struct {
    const char* name;
    double q;
  } percentiles[] = {{"remote_p50_ns", 0.5},
                     {"remote_p99_ns", 0.99},
                     {"remote_p999_ns", 0.999}};
  for (const auto& p : percentiles) {
    const double beyond = std::floor(static_cast<double>(n) * (1.0 - p.q));
    if (beyond >= 10.0) {
      report.Add(p.name, static_cast<double>(sim.remote.Percentile(p.q)),
                 "sim_ns", "sim",
                 "samples=" + std::to_string(n) +
                     " beyond=" + std::to_string(static_cast<uint64_t>(beyond)));
    } else {
      std::printf("  %-34s omitted: %" PRIu64 " samples, fewer than 10 beyond\n",
                  p.name, n);
      if (!tiny) {
        report.Check(false, "enough remote samples for every percentile");
      }
    }
  }
  report.Add("completion_sim_s", static_cast<double>(sim.completion_ns) / 1e9,
             "sim_s", "sim");
  const double fail_frac = Ratio(sim.Failed(), sim.requested);
  report.Add("served_frac", 1.0 - fail_frac, "ratio", "sim",
             "fail_frac=" + std::to_string(fail_frac));
}

void AddCounts(const SimResult& sim, Report& report) {
  const leap::Counters& c = sim.totals;
  const auto add = [&](const char* name, CounterId id) {
    report.Add(name, static_cast<double>(c.Get(id)), "count", "count");
  };
  add("runtime.cache_hits", counter::kCacheHits);
  add("runtime.wait_hits", counter::kPrefetchWaitHits);
  add("runtime.misses", counter::kCacheMisses);
  add("runtime.page_faults", counter::kPageFaults);
  report.Add("runtime.remote_samples", static_cast<double>(sim.remote.count()),
             "count", "count");

  const uint64_t issued = c.Get(counter::kPrefetchIssued);
  const uint64_t hits = c.Get(counter::kPrefetchHits);
  add("prefetch.issued", counter::kPrefetchIssued);
  add("prefetch.hits", counter::kPrefetchHits);
  add("prefetch.unused_evicted", counter::kPrefetchUnused);
  report.Add("prefetch.accuracy", Ratio(hits, issued), "ratio", "sim");
  report.Add("prefetch.coverage",
             Ratio(hits, hits + c.Get(counter::kCacheMisses)), "ratio", "sim");
  report.Add("prefetch.timeliness_p50_ns",
             static_cast<double>(sim.timeliness.Percentile(0.5)), "sim_ns",
             "sim");

  add("mem.evictions", counter::kEvictions);
  add("mem.eager_frees", counter::kEagerFrees);
  add("mem.lru_scanned", counter::kLruScans);
  add("paging.writebacks", counter::kWritebacks);
  add("paging.demand_reads", counter::kDemandReads);
  report.Add("mem.alloc_p50_ns", static_cast<double>(sim.alloc.Percentile(0.5)),
             "sim_ns", "sim");
  report.Add("mem.eviction_wait_p99_ns",
             static_cast<double>(sim.eviction_wait.Percentile(0.99)),
             "sim_ns", "sim");

  add("rdma.remote_reads", counter::kRemoteReads);
  add("rdma.remote_writes", counter::kRemoteWrites);
  add("rdma.read_retries", counter::kReadRetries);
  add("rdma.deadline_misses", counter::kReadDeadlineMisses);
  add("rdma.hedged_reads", counter::kHedgedReads);
  add("rdma.hedge_wins", counter::kHedgeWins);
  add("rdma.reads_rerouted", counter::kReadsRerouted);
  add("rdma.reads_lost", counter::kRemoteReadsLost);
  add("rdma.writes_lost", counter::kRemoteWritesLost);

  report.Add("cluster.fabric_ops", static_cast<double>(sim.fabric_ops),
             "count", "count");
  report.Add("cluster.fabric_bytes", static_cast<double>(sim.fabric_bytes),
             "bytes", "count");
  report.Add("cluster.slab_imbalance", static_cast<double>(sim.slab_imbalance),
             "slabs", "count");
  add("cluster.slab_repairs", counter::kSlabRepairs);
  add("cluster.repair_page_copies", counter::kRepairPageCopies);
  const auto& demand =
      sim.stages.cls[static_cast<size_t>(leap::IoClass::kDemandRead)];
  const struct {
    const char* name;
    uint64_t sum;
  } stages[] = {{"cluster.demand.software_ns", demand.software_ns},
                {"cluster.demand.queue_ns", demand.queue_ns},
                {"cluster.demand.wire_ns", demand.wire_ns},
                {"cluster.demand.stall_ns", demand.stall_ns},
                {"cluster.demand.service_ns", demand.service_ns}};
  for (const auto& s : stages) {
    report.Add(s.name, demand.MeanNs(s.sum), "sim_ns", "sim");
  }
  report.Add("cluster.demand_p99_queue_ns",
             static_cast<double>(sim.stages.demand_p99_queue_ns), "sim_ns",
             "sim");
  report.Add("cluster.queue_mean_ns.demand", sim.queue_mean_demand_ns,
             "sim_ns", "sim");
  report.Add("cluster.queue_mean_ns.prefetch", sim.queue_mean_prefetch_ns,
             "sim_ns", "sim");

  add("tier.promotions", counter::kTierPromotions);
  add("tier.demotions", counter::kTierDemotions);
  add("tier.spills", counter::kTierSpills);
  const uint64_t fast = c.Get(counter::kTierFastHits);
  report.Add("tier.fast_read_ratio",
             Ratio(fast, fast + c.Get(counter::kTierSlowHits)), "ratio",
             "sim");
}

double ElapsedS(int64_t since_ns) {
  return static_cast<double>(Tracer::Now() - since_ns) / 1e9;
}

int RunEndToEnd(const Args& args, const Inputs& inputs) {
  // Later rounds reuse the first round's freed memory, so the peak after
  // the first round is the simulator's footprint; heap fragmentation from
  // further rounds is not part of it.
  const long rss_base_kib = PeakRssKiB();
  const int64_t start = Tracer::Now();
  std::vector<Round> rounds;
  std::vector<double> setup_s;
  rounds.push_back(RunRound(inputs));
  const long rss_kib = PeakRssKiB() - rss_base_kib;
  // Each round also times two set-ups that are discarded, so set-up gets
  // three samples per round (the cluster fits only ~10 rounds in a run).
  for (;;) {
    setup_s.push_back(rounds.back().host.SetupS());
    for (int i = 0; i < 2; ++i) {
      setup_s.push_back(SetupOnly(inputs));
    }
    if (rounds.size() >= 3 && ElapsedS(start) >= args.seconds) {
      break;
    }
    rounds.push_back(RunRound(inputs));
  }

  Report report;
  std::vector<const SimResult*> sims;
  std::vector<double> acc_per_s;
  uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    sims.push_back(&r.sim);
    acc_per_s.push_back(static_cast<double>(r.sim.requested) / r.host.run_s);
    attempted += r.sim.requested;
    failed += r.sim.Failed();
  }
  CheckRounds(sims, report);
  const std::string n = "rounds=" + std::to_string(rounds.size());
  report.Add("host_acc_per_s", Median(acc_per_s), "acc/s", "host",
             n + " median");
  report.Add("setup_s", Median(setup_s), "s", "host",
             "setups=" + std::to_string(setup_s.size()) + " median");
  report.Add("rss_mb",
             static_cast<double>(rss_kib) / 1024.0, "MiB", "host",
             "first-round peak minus after-inputs");
  AddSimMetrics(rounds.front().sim, report, args.tiny);
  std::printf("fingerprint %s seed=%" PRIu64 ": %016" PRIx64 "\n",
              WorkloadName(args.workload), args.seed,
              rounds.front().sim.Fingerprint());
  report.Print(attempted, failed);
  return 0;
}

int RunTraced(const Args& args, const Inputs& inputs) {
  const int64_t start = Tracer::Now();
  Tracer tracer;
  std::vector<Round> plain, traced;
  std::vector<TraceDetail> details;
  std::vector<std::map<std::string, int64_t>> self_ns;
  // Untraced and traced rounds alternate so both see the same host load.
  do {
    plain.push_back(RunRound(inputs));
    details.emplace_back();
    traced.push_back(RunTracedRound(inputs, tracer, details.back()));
    self_ns.push_back(tracer.SelfNs(tracer.round()));
  } while (ElapsedS(start) < args.seconds);

  Report report;
  std::vector<const SimResult*> sims;
  uint64_t attempted = 0, failed = 0;
  for (size_t i = 0; i < plain.size(); ++i) {
    for (const Round* r : {&plain[i], &traced[i]}) {
      sims.push_back(&r->sim);
      attempted += r->sim.requested;
      failed += r->sim.Failed();
    }
  }
  CheckRounds(sims, report);

  const SimResult& sim = plain.front().sim;
  const double accesses = static_cast<double>(sim.requested);
  const auto median_of = [](const auto& rounds, auto field) {
    std::vector<double> v;
    for (const auto& r : rounds) {
      v.push_back(field(r));
    }
    return Median(std::move(v));
  };
  report.Add("runtime.ctor_s",
             median_of(traced, [](const Round& r) { return r.host.ctor_s; }),
             "s", "host");
  report.Add("runtime.warmup_s",
             median_of(traced, [](const Round& r) { return r.host.warmup_s; }),
             "s", "host");
  for (int b = 0; b < 4; ++b) {
    report.Add(std::string("runtime.access_ns.") + kAccessBucketNames[b],
               median_of(details,
                         [b](const TraceDetail& d) {
                           return d.access_calls[b] == 0
                                      ? 0.0
                                      : static_cast<double>(d.access_ns[b]) /
                                            static_cast<double>(
                                                d.access_calls[b]);
                         }),
               "ns", "host");
    report.Add(std::string("runtime.access_calls.") + kAccessBucketNames[b],
               static_cast<double>(details.front().access_calls[b]), "count",
               "count");
  }
  report.Add("prefetch.on_fault_ns",
             median_of(details,
                       [](const TraceDetail& d) {
                         return d.replay_records == 0
                                    ? 0.0
                                    : static_cast<double>(d.replay_ns) /
                                          static_cast<double>(d.replay_records);
                       }),
             "ns", "host",
             "records=" + std::to_string(details.front().replay_records));
  AddCounts(sim, report);

  const bool cluster = inputs.kind == WorkloadKind::kClusterMix;
  const double run_s =
      median_of(plain, [](const Round& r) { return r.host.run_s; });
  report.Add("cluster.run_s", cluster ? run_s : 0.0, "s", "host");
  report.Add("cluster.stats_s",
             cluster ? median_of(plain,
                                 [](const Round& r) { return r.host.stats_s; })
                     : 0.0,
             "s", "host");
  report.Add("cluster.host_ns_per_fabric_op",
             cluster && sim.fabric_ops > 0
                 ? run_s * 1e9 / static_cast<double>(sim.fabric_ops)
                 : 0.0,
             "ns", "host");

  const double untraced = accesses / run_s;
  const double traced_acc = median_of(
      traced, [&](const Round& r) { return accesses / r.host.run_s; });
  report.Add("trace.untraced_acc_per_s", untraced, "acc/s", "host",
             "rounds=" + std::to_string(plain.size()));
  report.Add("trace.traced_acc_per_s", traced_acc, "acc/s", "host");
  report.Add("trace.overhead_frac", 1.0 - traced_acc / untraced, "ratio",
             "host");
  for (const char* span : {"setup", "run", "stats", "prefetch.replay"}) {
    report.Add(std::string("trace.self_s.") + span,
               median_of(self_ns,
                         [span](const std::map<std::string, int64_t>& m) {
                           const auto it = m.find(span);
                           return it == m.end()
                                      ? 0.0
                                      : static_cast<double>(it->second) / 1e9;
                         }),
               "s", "host");
  }
  report.Add("trace.access_s",
             median_of(details,
                       [](const TraceDetail& d) {
                         int64_t sum = 0;
                         for (int64_t ns : d.access_ns) {
                           sum += ns;
                         }
                         return static_cast<double>(sum) / 1e9;
                       }),
             "s", "host");

  if (!args.trace_out.empty()) {
    report.Check(tracer.WriteChromeJson(args.trace_out),
                 "trace file written");
    std::printf("spans: %zu kept, written to %s\n", tracer.spans().size(),
                args.trace_out.c_str());
  }
  std::printf("fingerprint %s seed=%" PRIu64 ": %016" PRIx64 "\n",
              WorkloadName(args.workload), args.seed, sim.Fingerprint());
  report.Print(attempted, failed);
  return 0;
}

}  // namespace
}  // namespace leapbench

int main(int argc, char** argv) {
  leapbench::Args args;
  if (!leapbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: leapbench --workload <leap-stride|default-voltdb|"
                 "cluster-mix> --seed <n> --seconds <1-60> --trace <0|1> "
                 "[--tiny] [--trace-out <file>]\n");
    return 2;
  }
  const leapbench::Inputs inputs =
      leapbench::MakeInputs(args.workload, args.seed, args.tiny);
  std::printf("workload %s seed=%" PRIu64 " hosts=%zu nodes=%zu "
              "footprint=%zu frames=%zu accesses/app=%zu\n",
              leapbench::WorkloadName(args.workload), args.seed,
              inputs.geo.hosts, inputs.geo.nodes, inputs.geo.footprint_pages,
              inputs.geo.total_frames, inputs.geo.accesses_per_app);
  return args.trace == 0 ? leapbench::RunEndToEnd(args, inputs)
                         : leapbench::RunTraced(args, inputs);
}
