#include "workloads.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "src/prefetch/policy_registry.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/cluster.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/workload/app_models.h"
#include "src/workload/cluster_mix.h"
#include "src/workload/patterns.h"

namespace leapbench {

using leap::AccessResult;
using leap::AccessType;
using leap::Cluster;
using leap::ClusterAppSpec;
using leap::ClusterConfig;
using leap::Machine;
using leap::MemOp;
using leap::Pid;
using leap::Rng;
using leap::RunConfig;
using leap::RunResult;
using leap::SimTimeNs;

namespace {

// SplitMix64 finalizer: derives independent seeds from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<MemOp> Capture(leap::AccessStream& stream, size_t n, Rng& rng) {
  std::vector<MemOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ops.push_back(stream.Next(rng));
  }
  return ops;
}

// Replays a pre-generated op sequence: the timed region never samples a
// distribution, and every round sees byte-identical inputs.
class OpsStream : public leap::AccessStream {
 public:
  OpsStream(const std::vector<MemOp>& ops, size_t footprint_pages)
      : ops_(&ops), footprint_(footprint_pages) {}

  MemOp Next(Rng&) override { return (*ops_)[pos_++ % ops_->size()]; }
  size_t footprint_pages() const override { return footprint_; }
  std::string name() const override { return "pregenerated"; }

 private:
  const std::vector<MemOp>* ops_;
  size_t footprint_;
  size_t pos_ = 0;
};

// Seed of the simulated system itself (latency draws, slab placement).
// It is part of the system under test, not of its input, so it stays fixed
// and the workload seed varies only the generated inputs.
constexpr uint64_t kSimSeed = 42;

// Simulated time between the end of population and the measured phase.
constexpr SimTimeNs kSettleNs = 10 * leap::kNsPerMs;

ClusterConfig MakeClusterConfig(const Geometry& geo) {
  ClusterConfig config;
  config.hosts = geo.hosts;
  config.nodes = geo.nodes;
  config.node_capacity_slabs = 4096;
  config.host = leap::LeapVmmConfig(geo.total_frames, kSimSeed);
  config.host.host_agent.slab_pages = 64;
  config.seed = kSimSeed;
  config.placement = leap::PlacementPolicy::kPowerOfTwo;
  config.fabric.sched.kind = leap::LinkSchedulerKind::kDemandPriority;
  config.fabric.sched.migration_bandwidth_fraction = 0.25;
  // Congestion-aware prefetch budgets (the fig14 governor settings).
  config.host.budget.enabled = true;
  config.host.budget.max_budget = 8;
  config.host.budget.queue_delay_threshold_ns = 5'000.0;
  config.host.budget.increase_step = 0.5;
  // A small CXL tier under DRAM with the background migrator.
  config.host.tier.enabled = true;
  config.host.tier.cxl_capacity_pages = geo.cxl_pages;
  config.host.tier.promote_threshold = 2;
  config.host.tier.decay_every_ticks = 128;
  config.host.tier.migrate_batch = 8;
  // Deadline/retry, hedging and gray avoidance, with thresholds well above
  // the healthy loaded tail so mitigation does not feed a retry storm.
  config.resilience.enabled = true;
  config.resilience.read_deadline_ns = 250 * leap::kNsPerUs;
  config.resilience.max_read_retries = 2;
  config.resilience.retry_backoff_ns = 25 * leap::kNsPerUs;
  config.resilience.hedge_floor_ns = 50 * leap::kNsPerUs;
  return config;
}

// One simulator instance of a workload, built and driven through public
// calls only.
class Sim {
 public:
  explicit Sim(const Inputs& in) : in_(in) {
    switch (in.kind) {
      case WorkloadKind::kLeapStride:
        machine_ = std::make_unique<Machine>(
            leap::LeapVmmConfig(in.geo.total_frames, kSimSeed));
        hosts_.push_back(machine_.get());
        break;
      case WorkloadKind::kDefaultVoltdb:
        machine_ = std::make_unique<Machine>(leap::DefaultVmmConfig(
            leap::PrefetchKind::kReadAhead, in.geo.total_frames,
            kSimSeed));
        hosts_.push_back(machine_.get());
        break;
      case WorkloadKind::kClusterMix:
        cluster_ = std::make_unique<Cluster>(MakeClusterConfig(in.geo));
        for (size_t h = 0; h < cluster_->num_hosts(); ++h) {
          hosts_.push_back(&cluster_->host(h));
        }
        break;
    }
  }

  // CreateProcess at a 50% cgroup limit and sequential population of the
  // whole footprint on every host, then the cluster's fault plan.
  void Populate() {
    SimTimeNs warm_end = 0;
    for (Machine* host : hosts_) {
      const Pid pid = host->CreateProcess(in_.geo.footprint_pages / 2);
      pids_.push_back(pid);
      warm_end = leap::WarmUp(*host, pid, in_.geo.footprint_pages, warm_end);
    }
    start_ns_ = warm_end + kSettleNs;
    if (cluster_ != nullptr) {
      // Node 1 is gray for the middle half of the measured phase; node 2
      // is down from a third to two thirds of the way through.
      const SimTimeNs span = in_.geo.fault_span_ns;
      cluster_->ScheduleNodeGray(1, 16.0, start_ns_ + span / 4,
                                 start_ns_ + 3 * span / 4);
      cluster_->ScheduleNodeFailure(2, start_ns_ + span / 3);
      cluster_->ScheduleNodeRecovery(2, start_ns_ + 2 * span / 3);
    }
    streams_.reserve(in_.ops.size());
    for (const std::vector<MemOp>& ops : in_.ops) {
      streams_.emplace_back(ops, in_.geo.footprint_pages);
    }
  }

  RunConfig AppConfig(size_t app) const {
    RunConfig run;
    run.total_accesses = in_.ops[app].size();
    run.start_time_ns = start_ns_;
    return run;
  }

  // The public run call: RunApp on one machine, Cluster::Run on many.
  std::vector<RunResult> Run() {
    if (cluster_ == nullptr) {
      return {leap::RunApp(*machine_, pids_[0], streams_[0], AppConfig(0))};
    }
    std::vector<ClusterAppSpec> specs;
    specs.reserve(hosts_.size());
    for (size_t h = 0; h < hosts_.size(); ++h) {
      specs.push_back({h, pids_[h], &streams_[h], AppConfig(h)});
    }
    return cluster_->Run(std::move(specs));
  }

  // The same closed loop as RunApp / Cluster::Run (always advance the app
  // whose next access is earliest, lowest index on ties), with each
  // Machine::Access timed and bucketed by the type it returns.
  std::vector<RunResult> RunTraced(Tracer& tracer, TraceDetail& detail) {
    constexpr uint64_t kSampleEvery = 256;
    struct App {
      SimTimeNs local_time = 0;
      size_t pos = 0;
      bool done = false;
    };
    std::vector<App> apps(hosts_.size());
    std::vector<RunResult> results(hosts_.size());
    for (App& app : apps) {
      app.local_time = start_ns_;
    }
    static constexpr const char* kSpanNames[] = {
        "runtime.access.local", "runtime.access.cache_hit",
        "runtime.access.wait_hit", "runtime.access.miss"};
    uint64_t step = 0;
    for (;;) {
      App* next = nullptr;
      size_t index = 0;
      for (size_t i = 0; i < apps.size(); ++i) {
        if (!apps[i].done &&
            (next == nullptr || apps[i].local_time < next->local_time)) {
          next = &apps[i];
          index = i;
        }
      }
      if (next == nullptr) {
        break;
      }
      const std::vector<MemOp>& ops = in_.ops[index];
      const MemOp& op = ops[next->pos];
      next->local_time += op.think_ns;
      const int64_t t0 = Tracer::Now();
      const AccessResult access =
          hosts_[index]->Access(pids_[index], op.vpn, op.write,
                                next->local_time);
      const int64_t t1 = Tracer::Now();
      const AccessBucket bucket = Bucket(access.type);
      detail.access_ns[bucket] += t1 - t0;
      ++detail.access_calls[bucket];
      tracer.Child(kSpanNames[bucket], t0, t1, step++ % kSampleEvery == 0);

      next->local_time += access.latency;
      RunResult& result = results[index];
      ++result.accesses;
      if (op.op_end) {
        ++result.app_ops;
      }
      result.access_latency.Record(access.latency);
      if (access.type != AccessType::kLocalHit &&
          access.type != AccessType::kMinorFault) {
        result.remote_access_latency.Record(access.latency);
        if (access.type == AccessType::kMiss) {
          result.miss_latency.Record(access.latency);
        }
      }
      if (++next->pos == ops.size()) {
        next->done = true;
        result.finished = true;
        result.completion_ns = next->local_time - start_ns_;
      }
    }
    return results;
  }

  void StartFaultTraces(std::vector<leap::FaultTrace>& traces) {
    traces.resize(hosts_.size());
    for (size_t h = 0; h < hosts_.size(); ++h) {
      hosts_[h]->SetFaultTraceSink(&traces[h]);
    }
  }

  void StopFaultTraces() {
    for (Machine* host : hosts_) {
      host->SetFaultTraceSink(nullptr);
    }
  }

  SimResult Collect(const std::vector<RunResult>& results) {
    SimResult out;
    for (size_t app = 0; app < results.size(); ++app) {
      const RunResult& r = results[app];
      out.requested += in_.ops[app].size();
      out.completed += r.accesses;
      if (!r.finished || r.accesses != in_.ops[app].size()) {
        ++out.unfinished_apps;
      }
      out.remote.Merge(r.remote_access_latency);
      out.completion_ns = std::max(out.completion_ns, r.completion_ns);
    }
    if (cluster_ != nullptr) {
      const leap::ClusterStats stats = cluster_->Stats();
      out.totals = stats.totals;
      out.fabric_ops = stats.fabric_ops;
      out.fabric_bytes = stats.fabric_bytes;
      out.slab_imbalance = stats.SlabImbalance();
      out.stages = stats.stages;
      const auto& queue_mean = stats.class_queue_delay_mean_ns;
      out.queue_mean_demand_ns =
          queue_mean[static_cast<size_t>(leap::IoClass::kDemandRead)];
      out.queue_mean_prefetch_ns =
          queue_mean[static_cast<size_t>(leap::IoClass::kPrefetch)];
    } else {
      out.totals = machine_->counters();
    }
    for (Machine* host : hosts_) {
      out.timeliness.Merge(host->timeliness_hist());
      out.alloc.Merge(host->alloc_hist());
      out.eviction_wait.Merge(host->eviction_wait_hist());
      const leap::Counters& c = host->counters();
      const uint64_t resolved = c.Get(leap::counter::kPrefetchHits) +
                                c.Get(leap::counter::kPrefetchUnused);
      if (c.Get(leap::counter::kPrefetchIssued) !=
          resolved + host->unconsumed_prefetched()) {
        ++out.imbalanced_hosts;
      }
    }
    return out;
  }

  const std::vector<Machine*>& hosts() const { return hosts_; }

 private:
  static AccessBucket Bucket(AccessType type) {
    switch (type) {
      case AccessType::kLocalHit:
      case AccessType::kMinorFault:
        return kLocal;
      case AccessType::kCacheHit:
        return kCacheHit;
      case AccessType::kCacheWaitHit:
        return kWaitHit;
      case AccessType::kMiss:
        return kMiss;
    }
    return kLocal;
  }

  const Inputs& in_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<Machine*> hosts_;
  std::vector<Pid> pids_;
  std::vector<OpsStream> streams_;
  SimTimeNs start_ns_ = 0;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Replays each host's recorded fault trace into a fresh policy of the kind
// that host ran: misses through OnFault, page-cache hits through
// OnCacheAccess, in recorded order.
void ReplayFaultTraces(const std::vector<Machine*>& hosts,
                       const std::vector<leap::FaultTrace>& traces,
                       TraceDetail& detail) {
  for (size_t h = 0; h < hosts.size(); ++h) {
    const leap::MachineConfig& config = hosts[h]->config();
    std::unique_ptr<leap::PrefetchPolicy> policy = leap::MakePrefetchPolicy(
        config.prefetcher,
        leap::PolicyParams{config.leap, leap::GhbConfig{},
                           config.online_delta, config.profile_guided});
    const int64_t t0 = Tracer::Now();
    for (const leap::FaultRecord& rec : traces[h]) {
      if (rec.hit) {
        policy->OnCacheAccess(rec.pid, rec.slot);
      } else {
        policy->OnFault(leap::FaultContext(rec.pid, rec.slot, rec.now));
      }
    }
    detail.replay_ns += Tracer::Now() - t0;
    detail.replay_records += traces[h].size();
  }
}

}  // namespace

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kLeapStride: return "leap-stride";
    case WorkloadKind::kDefaultVoltdb: return "default-voltdb";
    case WorkloadKind::kClusterMix: return "cluster-mix";
  }
  return "unknown";
}

std::optional<WorkloadKind> ParseWorkload(std::string_view name) {
  for (WorkloadKind kind : {WorkloadKind::kLeapStride,
                            WorkloadKind::kDefaultVoltdb,
                            WorkloadKind::kClusterMix}) {
    if (name == WorkloadName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

namespace {

Geometry WorkloadGeometry(WorkloadKind kind, bool tiny) {
  Geometry geo;
  switch (kind) {
    case WorkloadKind::kLeapStride:
      // The micro geometry (16Ki-page footprint) scaled to 64Ki pages, with
      // twice the footprint in frames so the page cache has room.
      geo.footprint_pages = tiny ? 4096 : 64 * 1024;
      geo.total_frames = 2 * geo.footprint_pages;
      geo.accesses_per_app = tiny ? 20'000 : 400'000;
      break;
    case WorkloadKind::kDefaultVoltdb:
      geo.footprint_pages = tiny ? 4096 : 32 * 1024;
      geo.total_frames = 2 * geo.footprint_pages;
      geo.accesses_per_app = tiny ? 20'000 : 300'000;
      break;
    case WorkloadKind::kClusterMix:
      geo.hosts = tiny ? 12 : 256;
      geo.nodes = tiny ? 4 : 64;
      geo.footprint_pages = tiny ? 512 : 1024;
      geo.total_frames = geo.footprint_pages;
      geo.accesses_per_app = tiny ? 1500 : 4000;
      geo.cxl_pages = geo.footprint_pages / 8;
      // About the simulated length of the measured phase (33 ms at full
      // size).
      geo.fault_span_ns = (tiny ? 4 : 40) * leap::kNsPerMs;
      break;
  }
  return geo;
}

}  // namespace

Inputs MakeInputs(WorkloadKind kind, uint64_t seed, bool tiny) {
  Inputs in;
  in.kind = kind;
  in.geo = WorkloadGeometry(kind, tiny);
  const Geometry& geo = in.geo;
  Rng rng(Mix(seed, 1));
  switch (kind) {
    case WorkloadKind::kLeapStride: {
      // Stride-10 reads from a seeded starting point, with think times
      // drawn uniformly from [500, 1000] ns (the micro geometry's 750 ns
      // on average).
      leap::StrideStream stride(geo.footprint_pages, 10);
      for (uint64_t skip = rng.NextU64(geo.footprint_pages); skip > 0;
           --skip) {
        stride.Next(rng);
      }
      in.ops.push_back(Capture(stride, geo.accesses_per_app, rng));
      for (MemOp& op : in.ops[0]) {
        op.think_ns = 500 + rng.NextU64(501);
      }
      break;
    }
    case WorkloadKind::kDefaultVoltdb: {
      auto voltdb = leap::MakeVoltDb(geo.footprint_pages, Mix(seed, 2));
      in.ops.push_back(Capture(*voltdb, geo.accesses_per_app, rng));
      break;
    }
    case WorkloadKind::kClusterMix: {
      in.ops.reserve(geo.hosts);
      for (size_t h = 0; h < geo.hosts; ++h) {
        auto stream = leap::MakeClusterMixStream(h, geo.footprint_pages);
        Rng host_rng(Mix(seed, 100 + h));
        in.ops.push_back(Capture(*stream, geo.accesses_per_app, host_rng));
      }
      break;
    }
  }
  return in;
}

uint64_t SimResult::Failed() const {
  return (requested - completed) +
         totals.Get(leap::counter::kRemoteReadsLost) +
         totals.Get(leap::counter::kRemoteWritesLost);
}

namespace {

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001B3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const leap::Histogram& hist) {
    Add(hist.count());
    Add(hist.Sum());
    Add(hist.Min());
    Add(hist.Max());
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999}) {
      Add(hist.Percentile(q));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace

uint64_t SimResult::Fingerprint() const {
  Fnv f;
  f.Add(requested);
  f.Add(completed);
  f.Add(unfinished_apps);
  f.Add(imbalanced_hosts);
  f.Add(remote);
  f.Add(completion_ns);
  for (size_t i = 0; i < leap::kCounterCount; ++i) {
    f.Add(totals.Get(static_cast<leap::CounterId>(i)));
  }
  f.Add(timeliness);
  f.Add(alloc);
  f.Add(eviction_wait);
  f.Add(fabric_ops);
  f.Add(fabric_bytes);
  f.Add(slab_imbalance);
  for (const leap::StageBreakdown::Stage& s : stages.cls) {
    for (uint64_t v : {s.software_ns, s.queue_ns, s.wire_ns, s.stall_ns,
                       s.service_ns, s.ops}) {
      f.Add(v);
    }
  }
  for (uint64_t v :
       {stages.demand_p99_software_ns, stages.demand_p99_queue_ns,
        stages.demand_p99_wire_ns, stages.demand_p99_stall_ns,
        stages.demand_p99_service_ns, stages.demand_p99_total_ns}) {
    f.Add(v);
  }
  f.Add(queue_mean_demand_ns);
  f.Add(queue_mean_prefetch_ns);
  return f.value();
}

Round RunRound(const Inputs& inputs) {
  Round round;
  const int64_t t0 = Tracer::Now();
  Sim sim(inputs);
  const int64_t t1 = Tracer::Now();
  sim.Populate();
  const int64_t t2 = Tracer::Now();
  const std::vector<RunResult> results = sim.Run();
  const int64_t t3 = Tracer::Now();
  round.sim = sim.Collect(results);
  const int64_t t4 = Tracer::Now();
  round.host = {Seconds(t1 - t0), Seconds(t2 - t1), Seconds(t3 - t2),
                Seconds(t4 - t3)};
  return round;
}

double SetupOnly(const Inputs& inputs) {
  const int64_t t0 = Tracer::Now();
  Sim sim(inputs);
  sim.Populate();
  return Seconds(Tracer::Now() - t0);
}

Round RunTracedRound(const Inputs& inputs, Tracer& tracer,
                     TraceDetail& detail) {
  Round round;
  tracer.NewRound();
  tracer.Begin("setup");
  tracer.Begin("runtime.ctor");
  Sim sim(inputs);
  round.host.ctor_s = Seconds(tracer.End());
  tracer.Begin("runtime.warmup");
  sim.Populate();
  round.host.warmup_s = Seconds(tracer.End());
  tracer.End();

  std::vector<leap::FaultTrace> fault_traces;
  sim.StartFaultTraces(fault_traces);
  tracer.Begin("run");
  const std::vector<RunResult> results = sim.RunTraced(tracer, detail);
  round.host.run_s = Seconds(tracer.End());
  sim.StopFaultTraces();

  tracer.Begin("stats");
  round.sim = sim.Collect(results);
  round.host.stats_s = Seconds(tracer.End());

  tracer.Begin("prefetch.replay");
  ReplayFaultTraces(sim.hosts(), fault_traces, detail);
  tracer.End();
  return round;
}

}  // namespace leapbench
