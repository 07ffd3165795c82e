#include "src/runtime/cluster.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/stats/table.h"

namespace leap {

namespace {

// SplitMix64 finalizer: the deterministic mixer behind mirror targeting.
// Thread-timing-free - a pure function of (host, miss tick).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Formatting helpers for DumpStats (cold path; std::string churn is fine).
std::string FmtU64(uint64_t v) { return std::to_string(v); }

std::string FmtNs(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ns);
  return buf;
}

// Fault-injection instants on the recorder's node tracks. `payload` rides
// in TraceEvent::slot (stretch x1000 for gray, extra ns for spikes) so the
// injected magnitude is visible in the trace viewer's args pane.
void RecordFault(TraceRecorder* trace, TraceEventKind kind, SimTimeNs ts,
                 uint32_t node, uint64_t payload = 0) {
  if (trace == nullptr) {
    return;
  }
  TraceEvent e;
  e.kind = kind;
  e.ts = ts;
  e.node = node;
  e.slot = payload;
  trace->Record(e);
}

}  // namespace

size_t ClusterStats::SlabImbalance() const {
  if (node_slabs.empty()) {
    return 0;
  }
  const auto [min_it, max_it] =
      std::minmax_element(node_slabs.begin(), node_slabs.end());
  return *max_it - *min_it;
}

uint64_t ClusterStats::ClassOps(IoClass cls) const {
  uint64_t total = 0;
  for (const LinkClassCounts& link : node_downlink_classes) {
    total += link.ops[static_cast<size_t>(cls)];
  }
  return total;
}

uint64_t ClusterStats::ClassBytes(IoClass cls) const {
  uint64_t total = 0;
  for (const LinkClassCounts& link : node_downlink_classes) {
    total += link.bytes[static_cast<size_t>(cls)];
  }
  return total;
}

// Everything a shard owns. Between barriers a shard's worker is the only
// thread touching it; the global tables (nodes_, hosts_) are partitioned
// by the plan, so no simulation object is touched by two shards in the
// same window.
struct Cluster::Shard {
  uint32_t id = 0;
  EventQueue events;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<SlabPlacer> placer;
  std::unique_ptr<HealthMonitor> health;  // null unless enabled
  std::vector<uint32_t> foreign_nodes;    // mirror targets (other shards)
  Counters counters;  // scenario + cross-shard counters, merged in Stats
  // Receiver-side fabric draws for applied mirror ops. Seeded from a
  // stream disjoint from host seeding so shards > 1 never perturbs the
  // host seed sequence; never drawn at one shard (no mirrors exist).
  Rng mailbox_rng{0};

  // Per-Run state.
  std::unique_ptr<BoundAppSet> apps;
  std::vector<uint32_t> app_host;  // shard-local app -> global host id
  RunHooks hooks;

  // Cross-shard plumbing (empty at one shard). out[r] is this shard's SPSC
  // ring toward shard r (unique_ptr: the ring's atomics make it
  // immovable); pending holds transferred ops awaiting their window.
  std::vector<std::unique_ptr<SpscMailbox>> out;
  std::vector<CrossShardOp> pending;
  uint64_t next_seq = 0;
};

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), host_seeder_(config.seed) {
  if (config_.shards == 0) {
    throw std::invalid_argument("leap::Cluster: shards must be >= 1");
  }
  // Reject nonsense resilience knobs before any host exists (no-op when
  // resilience is disabled; SetResilience re-validates per host anyway,
  // but failing here puts the throw at the config site).
  config_.resilience.Validate();
  // Like a nodeless config's one synthetic donor node, the plan covers
  // the effective node count.
  const size_t node_count = std::max<size_t>(1, config_.nodes);
  plan_ = BuildShardPlan(config_.hosts, node_count, config_.shards);
  if (plan_.shards > 1 &&
      (config_.trace.enabled || config_.sampler.enabled)) {
    throw std::invalid_argument(
        "leap::Cluster: trace recording and the stats sampler need "
        "shards = 1 (the recorder ring and the sampler are not shard-safe)");
  }
  window_ns_ = plan_.shards == 1 ? BoundAppSet::kNoStep
               : config_.window_ns != 0 ? config_.window_ns
                                        : FabricLookaheadNs(config_.fabric);

  for (size_t n = 0; n < node_count; ++n) {
    nodes_.push_back(std::make_unique<RemoteAgent>(
        static_cast<uint32_t>(n), config_.node_capacity_slabs));
  }
  for (size_t s = 0; s < plan_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = static_cast<uint32_t>(s);
    for (size_t n = 0; n < node_count; ++n) {
      if (plan_.node_shard[n] != s) {
        shard->foreign_nodes.push_back(static_cast<uint32_t>(n));
      }
    }
    // Fabric sized for the WHOLE cluster (global host/node link indexing);
    // each shard only drives its own partition's links, except mirror
    // ops, which charge the sending host's uplink on the receiver's fabric.
    shard->fabric = std::make_unique<Fabric>(
        config_.fabric, std::max<size_t>(1, config_.hosts), node_count);
    shard->placer = MakeSlabPlacer(config_.placement);
    if (config_.resilience.enabled || config_.health_monitor_enabled) {
      shard->health = std::make_unique<HealthMonitor>(config_.health,
                                                      node_count);
      shard->health->SetCounters(&shard->counters);
    }
    // Stream tag keeps this disjoint from host seeding (host_seeder_ draws
    // exactly one value per host) and distinct per shard.
    shard->mailbox_rng =
        Rng(Mix64(config_.seed ^ (0x6D61696C626F78ULL + shard->id)));
    if (plan_.shards > 1) {
      for (size_t r = 0; r < plan_.shards; ++r) {
        shard->out.push_back(
            std::make_unique<SpscMailbox>(config_.mailbox_capacity));
      }
    }
    shards_.push_back(std::move(shard));
  }
  // Observability wiring must precede the hosts: each MachineEnv carries
  // the recorder pointer at construction, and the sampler's first tick is
  // queued ahead of any host event. Disabled means no recorder exists at
  // all - the null pointer IS the off switch everywhere downstream.
  Shard& first = *shards_[0];
  if (config_.trace.enabled) {
    trace_ = std::make_unique<TraceRecorder>(config_.trace);
    first.fabric->SetTrace(trace_.get());
    if (first.health != nullptr) {
      first.health->SetTrace(trace_.get());
    }
  }
  if (config_.sampler.enabled) {
    sampler_ = std::make_unique<StatsSampler>(
        config_.sampler, &first.events,
        [this](SimTimeNs now, StatsSample& sample) {
          CollectSample(now, sample);
        });
    sampler_->Start(config_.sampler.period_ns);
  }
  // Hosts in GLOBAL id order: each host draws its seed from host_seeder_
  // in the same sequence regardless of which shard it lands on.
  for (size_t h = 0; h < config_.hosts; ++h) {
    AddHostTo(*shards_[plan_.host_shard[h]]);
  }
}

Cluster::~Cluster() = default;

size_t Cluster::AddHost() {
  if (plan_.shards > 1) {
    throw std::logic_error(
        "leap::Cluster: AddHost needs shards = 1 (the plan partitions "
        "hosts at construction)");
  }
  Shard& shard = *shards_[0];
  const size_t id = hosts_.size();
  while (shard.fabric->num_hosts() <= id) {
    shard.fabric->AddHost();
  }
  plan_.host_shard.push_back(0);
  plan_.shard_hosts[0].push_back(static_cast<uint32_t>(id));
  return AddHostTo(shard);
}

size_t Cluster::AddHostTo(Shard& shard) {
  const size_t id = hosts_.size();
  MachineConfig host_config = config_.host;
  host_config.medium = Medium::kRemote;
  host_config.seed = host_seeder_.NextU64();

  MachineEnv env;
  env.shared_events = &shard.events;
  env.fabric = shard.fabric.get();
  env.placer = shard.placer.get();
  env.host_id = static_cast<uint32_t>(id);
  env.trace = trace_.get();
  const std::vector<uint32_t>& pool = plan_.shard_nodes[shard.id];
  env.remote_pool.reserve(pool.size());
  for (const uint32_t n : pool) {
    env.remote_pool.push_back(nodes_[n].get());
  }

  hosts_.push_back(std::make_unique<Machine>(host_config, env));
  HostAgent* agent = hosts_.back()->host_agent();
  if (shard.health != nullptr) {
    agent->SetHealthTracker(shard.health.get());
  }
  if (config_.resilience.enabled) {
    agent->SetResilience(config_.resilience);
  }
  alive_.push_back(1);
  host_remote_hist_.emplace_back();
  host_miss_ticks_.push_back(0);
  shard.counters.Add(counter::kHostJoins);
  return id;
}

void Cluster::RemoveHost(size_t host) {
  if (host >= hosts_.size() || alive_[host] == 0) {
    return;
  }
  alive_[host] = 0;
  // Abrupt departure: the host's slabs return to the pool (its remote data
  // is gone, like a lease expiring in Infiniswap).
  hosts_[host]->host_agent()->ReleaseAllSlabs();
  shards_[plan_.host_shard[host]]->counters.Add(counter::kHostLeaves);
}

void Cluster::CheckNode(uint32_t node) const {
  // Fail fast at schedule time; an unchecked id would blow up later, deep
  // inside some host's event drain.
  if (node >= nodes_.size()) {
    throw std::out_of_range("leap::Cluster: unknown node");
  }
}

void Cluster::ScheduleNodeFailure(uint32_t node, SimTimeNs at) {
  ScheduleCorrelatedFailure({node}, at);
}

void Cluster::ScheduleCorrelatedFailure(std::vector<uint32_t> group,
                                        SimTimeNs at) {
  for (const uint32_t node : group) {
    CheckNode(node);
  }
  for (const auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    std::vector<uint32_t> members;
    for (const uint32_t node : group) {
      if (plan_.node_shard[node] == shard->id) {
        members.push_back(node);
      }
    }
    if (members.empty()) {
      continue;
    }
    shard->events.ScheduleAt(at, [this, shard, members = std::move(members)](
                                     SimTimeNs when) {
      // The shard's members drop at once BEFORE any repair runs: repair of
      // a slab replicated entirely inside the domain must see every copy
      // gone (sequential single-node failures would let the first repair
      // re-copy from a node that is about to die).
      for (const uint32_t node : members) {
        nodes_[node]->Fail();
        shard->counters.Add(counter::kNodeFailures);
        RecordFault(trace_.get(), TraceEventKind::kNodeFail, when, node);
      }
      // Every live host re-maps the slabs that lost a replica and
      // re-replicates from survivors; the repair traffic rides the fabric
      // at `when`, congesting it like a real rebuild storm. Only home-shard
      // hosts can hold slabs here (placement is shard-local). Mirror
      // replicas on the node are lost, not repaired (DR semantics).
      for (const uint32_t node : members) {
        for (const uint32_t h : plan_.shard_hosts[shard->id]) {
          if (alive_[h] != 0) {
            hosts_[h]->host_agent()->RepairSlabsAfterFailure(node, when);
          }
        }
      }
    });
  }
}

void Cluster::ScheduleNodeRecovery(uint32_t node, SimTimeNs at) {
  CheckNode(node);
  Shard* shard = &HomeShard(node);
  shard->events.ScheduleAt(at, [this, shard, node](SimTimeNs when) {
    nodes_[node]->Recover();
    shard->counters.Add(counter::kNodeRecoveries);
    RecordFault(trace_.get(), TraceEventKind::kNodeRecover, when, node);
  });
}

void Cluster::ScheduleNodeGray(uint32_t node, double stretch, SimTimeNs at,
                               SimTimeNs until) {
  CheckNode(node);
  if (stretch <= 0.0) {
    throw std::invalid_argument("leap::Cluster: gray stretch must be > 0");
  }
  Shard* shard = &HomeShard(node);
  shard->events.ScheduleAt(at, [this, shard, node, stretch](SimTimeNs when) {
    shard->fabric->SetNodeSlowdown(node, stretch);
    if (stretch != 1.0) {  // restoring full speed is not a fault event
      shard->counters.Add(counter::kGrayFaultEvents);
      RecordFault(trace_.get(), TraceEventKind::kGraySet, when, node,
                  static_cast<uint64_t>(stretch * 1000.0));
    } else {
      RecordFault(trace_.get(), TraceEventKind::kGrayClear, when, node);
    }
  });
  if (until > at) {
    shard->events.ScheduleAt(until, [this, shard, node](SimTimeNs when) {
      shard->fabric->SetNodeSlowdown(node, 1.0);
      RecordFault(trace_.get(), TraceEventKind::kGrayClear, when, node);
    });
  }
}

void Cluster::ScheduleNodeDelaySpike(uint32_t node, SimTimeNs extra_ns,
                                     SimTimeNs at, SimTimeNs until) {
  CheckNode(node);
  Shard* shard = &HomeShard(node);
  shard->events.ScheduleAt(at, [this, shard, node, extra_ns](SimTimeNs when) {
    shard->fabric->SetNodeExtraDelayNs(node, extra_ns);
    shard->counters.Add(counter::kDelaySpikeEvents);
    RecordFault(trace_.get(), TraceEventKind::kDelaySpike, when, node,
                extra_ns);
  });
  if (until > at) {
    shard->events.ScheduleAt(until, [this, shard, node](SimTimeNs when) {
      shard->fabric->SetNodeExtraDelayNs(node, 0);
      RecordFault(trace_.get(), TraceEventKind::kDelaySpike, when, node, 0);
    });
  }
}

void Cluster::ScheduleHostLeave(size_t host, SimTimeNs at) {
  if (host >= hosts_.size()) {
    throw std::out_of_range("leap::Cluster: unknown host");
  }
  shards_[plan_.host_shard[host]]->events.ScheduleAt(
      at, [this, host](SimTimeNs /*when*/) { RemoveHost(host); });
}

void Cluster::RunEventsUntil(SimTimeNs until) {
  for (const auto& shard : shards_) {
    shard->events.RunUntil(until);
  }
}

const HealthMonitor* Cluster::health_monitor(uint32_t node) const {
  CheckNode(node);
  return HomeShard(node).health.get();
}

void Cluster::SendMirror(Shard& shard, uint32_t host, uint64_t tick,
                         SimTimeNs now) {
  const uint64_t mix = Mix64((static_cast<uint64_t>(host) << 32) ^ tick);
  const uint32_t node =
      shard.foreign_nodes[mix % shard.foreign_nodes.size()];
  CrossShardOp op;
  // One full lookahead out: now >= window_start, so effect_ts >= the end
  // of the current window - the receiver cannot need it before the next
  // barrier has transferred it.
  op.effect_ts = now + window_ns_;
  op.seq = shard.next_seq++;
  // Mirror pages live in a namespace no HostAgent PageKey can collide
  // with (bit 63 set; PageKey is (host << 48) ^ slot with host < 2^15).
  op.page_key =
      (1ULL << 63) | (static_cast<uint64_t>(host) << 32) | (tick & 0xffffffff);
  op.tag = mix;
  op.slot = static_cast<SwapSlot>(tick);
  op.node = node;
  op.host = host;
  op.sender = shard.id;
  op.kind = CrossShardOp::Kind::kMirrorWrite;
  shard.out[plan_.node_shard[node]]->Push(op);
  shard.counters.Add(counter::kCrossShardSent);
}

void Cluster::ApplyPending(Shard& shard) {
  if (shard.pending.empty()) {
    return;
  }
  // Deterministic application order regardless of which barrier drained
  // which ring first: simulated time, then (sender, seq).
  std::sort(shard.pending.begin(), shard.pending.end(), CrossShardOpBefore);
  size_t n = 0;
  while (n < shard.pending.size() &&
         shard.pending[n].effect_ts < window_end_) {
    ++n;
  }
  if (n == 0) {
    return;
  }
  // Fire this shard's background events due before the window, so a node
  // failure scheduled earlier is visible to the failed() check below.
  if (window_start_ > 0) {
    shard.events.RunUntil(window_start_ - 1);
  }
  for (size_t i = 0; i < n; ++i) {
    const CrossShardOp& op = shard.pending[i];
    RemoteAgent& node = *nodes_[op.node];
    if (!node.failed()) {
      IoRequest req;
      req.slot = op.slot;
      req.tenant = op.tenant;
      req.host = op.host;
      req.cls = IoClass::kWriteback;
      req.bytes = op.bytes;
      req.enqueue_ts = op.effect_ts;
      shard.fabric->SubmitPageOp(req, op.node, op.effect_ts,
                                 shard.mailbox_rng);
      node.StorePage(op.page_key, op.tag);
      node.CountWrite();
    }
    shard.counters.Add(counter::kCrossShardApplied);
  }
  shard.pending.erase(shard.pending.begin(),
                      shard.pending.begin() + static_cast<ptrdiff_t>(n));
}

void Cluster::OnBarrier() {
  // Serial section: exactly one thread runs this while every other worker
  // waits inside the barrier, so plain reads of shard state are safe.
  ++windows_run_;

  // 1. Transfer: drain every (sender -> receiver) ring into the receiver's
  // pending list. Serially, so overflow flushes and ring drains interleave
  // identically run to run.
  for (const auto& sender : shards_) {
    for (size_t r = 0; r < sender->out.size(); ++r) {
      sender->out[r]->DrainTo(shards_[r]->pending);
    }
  }

  // 2. Global minimum of future work: the earliest app step or pending op
  // anywhere. Background events deliberately do not hold the run open -
  // events after the last access never run inside Run.
  SimTimeNs global_min = BoundAppSet::kNoStep;
  for (const auto& shard : shards_) {
    global_min = std::min(global_min, shard->apps->NextStepTime());
    for (const CrossShardOp& op : shard->pending) {
      global_min = std::min(global_min, op.effect_ts);
    }
  }
  if (global_min == BoundAppSet::kNoStep) {
    stopped_ = true;
    return;
  }

  // 3. Advance - jumping over idle stretches (apps far in the future, a
  // pending op windows away) in one step instead of spinning empty
  // windows.
  const uint64_t next_index =
      std::max(window_end_ / window_ns_, global_min / window_ns_);
  window_start_ = next_index * window_ns_;
  window_end_ = window_start_ + window_ns_;
}

void Cluster::WorkerLoop(Shard& shard, WindowBarrier& barrier) {
  for (;;) {
    ApplyPending(shard);
    shard.apps->StepUntil(window_end_, shard.hooks);
    barrier.ArriveAndWait();
    if (stopped_) {
      break;
    }
    // Background catch-up for shards with nothing left to step (donor-only
    // shards, shards whose apps finished): scenario events keep firing so
    // failures/recoveries still land while the cluster runs. Shards with
    // live apps drain their queue through Machine::Access - and the final
    // window never drains here at all, preserving "events after the last
    // access never run".
    if (shard.apps->AllDone() && window_start_ > 0) {
      shard.events.RunUntil(window_start_ - 1);
    }
  }
}

std::vector<RunResult> Cluster::Run(std::vector<ClusterAppSpec> specs) {
  // Partition specs by home shard, preserving spec order within each shard
  // (BoundAppSet's min-time tie-break is index order).
  std::vector<std::vector<BoundAppSpec>> bound(shards_.size());
  for (const auto& shard : shards_) {
    shard->app_host.clear();
  }
  for (const ClusterAppSpec& spec : specs) {
    if (spec.host >= hosts_.size()) {
      throw std::out_of_range("leap::Cluster: unknown host in spec");
    }
    const uint32_t s = plan_.host_shard[spec.host];
    bound[s].push_back(
        {hosts_[spec.host].get(), spec.pid, spec.stream, spec.config});
    shards_[s]->app_host.push_back(static_cast<uint32_t>(spec.host));
  }
  const bool mirrors = config_.mirror_every > 0 && plan_.shards > 1;
  SimTimeNs first_step = BoundAppSet::kNoStep;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.apps = std::make_unique<BoundAppSet>(std::move(bound[shard.id]));
    shard.hooks.keep_running = [this, &shard](size_t i) {
      return alive_[shard.app_host[i]] != 0;
    };
    shard.hooks.on_remote_access = [this, &shard, mirrors](
                                       size_t i, const AccessResult& access,
                                       SimTimeNs now) {
      const uint32_t h = shard.app_host[i];
      host_remote_hist_[h].Record(access.latency);
      if (access.type != AccessType::kMiss) {
        return;
      }
      // Windowed demand-miss latency for the sampler's p50/p99 time series
      // (reset every tick). Guarded so a sampler-free run pays nothing.
      if (sampler_ != nullptr) {
        demand_window_hist_.Record(access.latency);
      }
      if (mirrors && !shard.foreign_nodes.empty() &&
          ++host_miss_ticks_[h] % config_.mirror_every == 0) {
        SendMirror(shard, h, host_miss_ticks_[h], now);
      }
    };
    first_step = std::min(first_step, shard.apps->NextStepTime());
  }

  windows_run_ = 0;
  if (first_step != BoundAppSet::kNoStep) {
    // Start at the earliest app step (apps typically begin after a long
    // warm-up; starting at 0 would spin thousands of empty windows). At
    // one shard the window is the whole run: one pass, no barrier wait.
    window_start_ = (first_step / window_ns_) * window_ns_;
    window_end_ = window_start_ + window_ns_;
    stopped_ = false;
    WindowBarrier barrier(plan_.shards, [this] { OnBarrier(); });
    if (plan_.shards == 1) {
      WorkerLoop(*shards_[0], barrier);
    } else {
      std::vector<std::thread> workers;
      workers.reserve(shards_.size());
      for (const auto& shard : shards_) {
        workers.emplace_back(
            [this, &barrier, s = shard.get()] { WorkerLoop(*s, barrier); });
      }
      for (std::thread& worker : workers) {
        worker.join();
      }
    }
  }

  // Move each shard's results into spec order (no default-constructed
  // placeholders: every RunResult carries three histograms).
  std::vector<std::vector<RunResult>> shard_results;
  shard_results.reserve(shards_.size());
  for (const auto& shard : shards_) {
    shard_results.push_back(shard->apps->TakeResults());
  }
  std::vector<size_t> next(shards_.size(), 0);
  std::vector<RunResult> results;
  results.reserve(specs.size());
  for (const ClusterAppSpec& spec : specs) {
    const uint32_t s = plan_.host_shard[spec.host];
    results.push_back(std::move(shard_results[s][next[s]++]));
  }
  return results;
}

ClusterStats Cluster::Stats() const {
  ClusterStats stats;
  for (const auto& shard : shards_) {
    stats.totals.Merge(shard->counters);
  }
  for (const auto& host : hosts_) {
    stats.totals.Merge(host->counters());
  }
  stats.node_slabs.reserve(nodes_.size());
  stats.node_reads.reserve(nodes_.size());
  stats.node_writes.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    stats.node_slabs.push_back(node->mapped_slabs());
    stats.node_reads.push_back(node->reads_served());
    stats.node_writes.push_back(node->writes_served());
  }
  // Per-link class counts: each op is charged on exactly one shard's
  // fabric, so summing the same link across every fabric is exact.
  const auto add_link = [](LinkClassCounts& dst, const LinkClassCounts& src) {
    for (size_t c = 0; c < kIoClassCount; ++c) {
      dst.ops[c] += src.ops[c];
      dst.bytes[c] += src.bytes[c];
    }
  };
  stats.host_uplink_classes.resize(shards_[0]->fabric->num_hosts());
  stats.node_downlink_classes.resize(nodes_.size());
  double delay_sum = 0.0;
  uint64_t delay_ops = 0;
  for (const auto& shard : shards_) {
    const Fabric& fabric = *shard->fabric;
    stats.fabric_ops += fabric.ops();
    stats.fabric_bytes += fabric.bytes();
    delay_sum += fabric.queue_delay_hist().Sum();
    delay_ops += fabric.queue_delay_hist().count();
    for (size_t h = 0; h < stats.host_uplink_classes.size(); ++h) {
      add_link(stats.host_uplink_classes[h],
               fabric.host_classes(static_cast<uint32_t>(h)));
    }
    for (size_t n = 0; n < stats.node_downlink_classes.size(); ++n) {
      add_link(stats.node_downlink_classes[n],
               fabric.node_classes(static_cast<uint32_t>(n)));
    }
  }
  stats.queue_delay_mean_ns =
      delay_ops == 0 ? 0.0 : delay_sum / static_cast<double>(delay_ops);
  for (size_t c = 0; c < kIoClassCount; ++c) {
    const auto cls = static_cast<IoClass>(c);
    double class_delay_sum = 0.0, sojourn_sum = 0.0;
    uint64_t class_delay_ops = 0, sojourn_ops = 0;
    double single_ewma = 0.0, weighted_ewma = 0.0;
    size_t ewma_contributors = 0;
    for (const auto& shard : shards_) {
      const Fabric& fabric = *shard->fabric;
      class_delay_sum += fabric.ClassQueueDelaySumNs(cls);
      sojourn_sum += fabric.ClassSojournSumNs(cls);
      sojourn_ops += fabric.ClassSojournOps(cls);
      const uint64_t ops = fabric.ClassQueueDelayOps(cls);
      class_delay_ops += ops;
      if (ops > 0) {
        ++ewma_contributors;
        single_ewma = fabric.QueueDelayEwmaNs(cls);
        weighted_ewma +=
            fabric.QueueDelayEwmaNs(cls) * static_cast<double>(ops);
      }
    }
    // One contributing shard: copy its EWMA verbatim (float-exact, so one
    // shard's stats come back unchanged). Several: the ops-weighted mean
    // is the sensible cluster-wide summary.
    stats.class_queue_delay_ewma_ns[c] =
        ewma_contributors == 0
            ? 0.0
            : (ewma_contributors == 1
                   ? single_ewma
                   : weighted_ewma / static_cast<double>(class_delay_ops));
    stats.class_queue_delay_mean_ns[c] =
        class_delay_ops == 0
            ? 0.0
            : class_delay_sum / static_cast<double>(class_delay_ops);
    stats.class_sojourn_mean_ns[c] =
        sojourn_ops == 0 ? 0.0 : sojourn_sum / static_cast<double>(sojourn_ops);
  }
  if (shards_[0]->health != nullptr) {
    stats.node_health_ewma_ns.reserve(nodes_.size());
    stats.node_health_state.reserve(nodes_.size());
    for (size_t n = 0; n < nodes_.size(); ++n) {
      // Each node's health lives on its home shard's monitor: only home
      // hosts read from it, so only that monitor ever saw its latencies.
      const auto id = static_cast<uint32_t>(n);
      const HealthMonitor& monitor = *HomeShard(id).health;
      stats.node_health_ewma_ns.push_back(monitor.NodeEwmaNs(id));
      stats.node_health_state.push_back(monitor.State(id));
    }
  }
  // Stage sums add; demand-stage tail percentiles recompute over the
  // merged histograms (a p99 of p99s would be meaningless).
  for (const auto& shard : shards_) {
    const StageBreakdown shard_stages = shard->fabric->Stages();
    for (size_t c = 0; c < kIoClassCount; ++c) {
      StageBreakdown::Stage& dst = stats.stages.cls[c];
      const StageBreakdown::Stage& src = shard_stages.cls[c];
      dst.software_ns += src.software_ns;
      dst.queue_ns += src.queue_ns;
      dst.wire_ns += src.wire_ns;
      dst.stall_ns += src.stall_ns;
      dst.service_ns += src.service_ns;
      dst.ops += src.ops;
    }
  }
  std::array<uint64_t, Fabric::kDemandStageHists> p99{};
  Histogram merged;
  for (size_t i = 0; i < Fabric::kDemandStageHists; ++i) {
    merged.Reset();
    for (const auto& shard : shards_) {
      merged.Merge(shard->fabric->DemandStageHist(i));
    }
    p99[i] = merged.Percentile(0.99);
  }
  stats.stages.demand_p99_software_ns = p99[0];
  stats.stages.demand_p99_queue_ns = p99[1];
  stats.stages.demand_p99_wire_ns = p99[2];
  stats.stages.demand_p99_stall_ns = p99[3];
  stats.stages.demand_p99_service_ns = p99[4];
  stats.stages.demand_p99_total_ns = p99[5];
  for (const auto& host : hosts_) {
    const TieredStore* tiered = host->tiered_store();
    if (tiered == nullptr) {
      continue;
    }
    if (stats.tier_pages.empty()) {
      stats.tier_pages.resize(kTierCount, 0);
    }
    for (size_t t = 0; t < kTierCount; ++t) {
      stats.tier_pages[t] += tiered->TierPages(t);
    }
  }
  return stats;
}

uint64_t Cluster::mailbox_overflows() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& mailbox : shard->out) {
      total += mailbox->overflowed();
    }
  }
  return total;
}

void Cluster::CollectSample(SimTimeNs now, StatsSample& sample) {
  (void)now;
  const Shard& shard = *shards_[0];  // the sampler needs one shard
  sample.window_demand_ops = demand_window_hist_.count();
  sample.window_demand_p50_ns = demand_window_hist_.Percentile(0.50);
  sample.window_demand_p99_ns = demand_window_hist_.Percentile(0.99);
  demand_window_hist_.Reset();
  sample.demand_queue_delay_ewma_ns =
      shard.fabric->QueueDelayEwmaNs(IoClass::kDemandRead);
  sample.prefetch_queue_delay_ewma_ns =
      shard.fabric->QueueDelayEwmaNs(IoClass::kPrefetch);
  if (shard.health != nullptr) {
    sample.node_state.reserve(nodes_.size());
    sample.node_ewma_ns.reserve(nodes_.size());
    for (size_t n = 0; n < nodes_.size(); ++n) {
      const auto id = static_cast<uint32_t>(n);
      sample.node_state.push_back(
          static_cast<uint8_t>(shard.health->State(id)));
      sample.node_ewma_ns.push_back(shard.health->NodeEwmaNs(id));
    }
  }
  sample.host_free_frames.reserve(hosts_.size());
  sample.host_cache_pages.reserve(hosts_.size());
  std::vector<std::pair<Pid, double>> budgets;
  for (size_t h = 0; h < hosts_.size(); ++h) {
    sample.host_free_frames.push_back(hosts_[h]->free_frames());
    sample.host_cache_pages.push_back(hosts_[h]->cache_size());
    // Tier occupancy + cumulative migration volume (observation-only; the
    // fields stay empty/zero - and unserialized - on untiered runs).
    if (const TieredStore* tiered = hosts_[h]->tiered_store()) {
      if (sample.tier_pages.empty()) {
        sample.tier_pages.resize(kTierCount, 0);
      }
      for (size_t t = 0; t < kTierCount; ++t) {
        sample.tier_pages[t] += tiered->TierPages(t);
      }
      sample.tier_promotions +=
          hosts_[h]->counters().Get(counter::kTierPromotions);
      sample.tier_demotions +=
          hosts_[h]->counters().Get(counter::kTierDemotions);
    }
    const BudgetGovernor* governor = hosts_[h]->governor();
    if (governor != nullptr) {
      budgets.clear();
      // SnapshotBudgets (not BudgetFor): reading must not advance the
      // governor's AIMD epoch, or sampling would perturb the run.
      governor->SnapshotBudgets(budgets);
      for (const auto& [pid, budget] : budgets) {
        sample.tenant_budgets.push_back(
            {static_cast<uint32_t>(h), pid, budget});
      }
    }
  }
}

void Cluster::DumpStats(std::ostream& out) const {
  const ClusterStats stats = Stats();
  out << "cluster: " << hosts_.size() << " hosts, " << nodes_.size()
      << " nodes, seed " << config_.seed << "\n";

  out << "\n-- counters (nonzero totals) --\n";
  TextTable counters;
  counters.SetHeader({"counter", "value"});
  for (const auto& [name, value] : stats.totals.values()) {
    counters.AddRow({name, FmtU64(value)});
  }
  out << counters.Render();

  out << "\n-- nodes --\n";
  TextTable node_table;
  node_table.SetHeader(
      {"node", "slabs", "reads", "writes", "health", "ewma_ns"});
  for (size_t n = 0; n < stats.node_slabs.size(); ++n) {
    const bool health = n < stats.node_health_state.size();
    node_table.AddRow(
        {FmtU64(n), FmtU64(stats.node_slabs[n]), FmtU64(stats.node_reads[n]),
         FmtU64(stats.node_writes[n]),
         health ? NodeHealthName(stats.node_health_state[n]) : "-",
         health ? FmtNs(stats.node_health_ewma_ns[n]) : "-"});
  }
  out << node_table.Render();

  out << "\n-- node downlinks: ops by class --\n";
  TextTable link_table;
  {
    std::vector<std::string> header{"node"};
    for (size_t c = 0; c < kIoClassCount; ++c) {
      header.push_back(IoClassName(static_cast<IoClass>(c)));
    }
    header.push_back("bytes");
    link_table.SetHeader(std::move(header));
  }
  for (size_t n = 0; n < stats.node_downlink_classes.size(); ++n) {
    const LinkClassCounts& link = stats.node_downlink_classes[n];
    std::vector<std::string> row{FmtU64(n)};
    uint64_t bytes = 0;
    for (size_t c = 0; c < kIoClassCount; ++c) {
      row.push_back(FmtU64(link.ops[c]));
      bytes += link.bytes[c];
    }
    row.push_back(FmtU64(bytes));
    link_table.AddRow(std::move(row));
  }
  out << link_table.Render();

  out << "\n-- stage breakdown: mean ns/op by class "
         "(software|queue|wire|stall|service) --\n";
  TextTable stage_table;
  stage_table.SetHeader({"class", "ops", "software", "queue", "wire", "stall",
                         "service", "total"});
  for (size_t c = 0; c < kIoClassCount; ++c) {
    const StageBreakdown::Stage& s = stats.stages.cls[c];
    if (s.ops == 0) {
      continue;
    }
    stage_table.AddRow({IoClassName(static_cast<IoClass>(c)), FmtU64(s.ops),
                        FmtNs(s.MeanNs(s.software_ns)),
                        FmtNs(s.MeanNs(s.queue_ns)), FmtNs(s.MeanNs(s.wire_ns)),
                        FmtNs(s.MeanNs(s.stall_ns)),
                        FmtNs(s.MeanNs(s.service_ns)),
                        FmtNs(s.MeanNs(s.TotalNs()))});
  }
  out << stage_table.Render();

  out << "\n-- demand read p99, per stage (ns) --\n";
  TextTable p99_table;
  p99_table.SetHeader(
      {"software", "queue", "wire", "stall", "service", "end_to_end"});
  p99_table.AddRow({FmtU64(stats.stages.demand_p99_software_ns),
                    FmtU64(stats.stages.demand_p99_queue_ns),
                    FmtU64(stats.stages.demand_p99_wire_ns),
                    FmtU64(stats.stages.demand_p99_stall_ns),
                    FmtU64(stats.stages.demand_p99_service_ns),
                    FmtU64(stats.stages.demand_p99_total_ns)});
  out << p99_table.Render();

  if (!stats.tier_pages.empty()) {
    out << "\n-- tier occupancy (pages, all hosts) --\n";
    TextTable tier_table;
    tier_table.SetHeader({"tier", "pages"});
    for (size_t t = 0; t < stats.tier_pages.size(); ++t) {
      tier_table.AddRow({TierName(t), FmtU64(stats.tier_pages[t])});
    }
    out << tier_table.Render();
  }
  if (trace_ != nullptr) {
    out << "\ntrace: " << trace_->size() << " events buffered, "
        << trace_->dropped() << " dropped\n";
  }
}

}  // namespace leap
