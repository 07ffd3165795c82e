// Multi-host memory-disaggregation cluster: N host machines and M memory
// nodes connected by a congestion-aware fabric.
//
// This is the composition point the single-host Machine could not express:
// Figure 13 scaled out. Hosts contend for node downlinks (remote latency
// rises with cluster load), a pluggable SlabPlacer spreads slabs across the
// donor pool, and scenario hooks inject node failure/recovery (with slab
// repair and re-replication) and host join/leave mid-run - all on
// simulated time, so every scenario interleaves deterministically with
// foreground faults and same-seed cluster runs are bit-identical.
//
// The shard is the engine's only unit. A ShardPlan splits the cluster into
// `shards` shards, each owning a block of hosts and a slice of donor nodes
// with its own EventQueue, Fabric, SlabPlacer and HealthMonitor. Each
// host's donor pool is its home shard's node slice, so the synchronous
// demand path (fault -> HostAgent -> fabric -> node) never leaves the
// shard. With one shard (the default) every host shares one queue and one
// fabric, and Run steps every app in one global-time-ordered pass. With
// several, each shard runs on its own worker thread in conservative
// lockstep windows (src/sim/README.md); cross-shard traffic is async
// mirror writes (every Nth demand miss, a DR-style replica to a foreign
// node) appended to per-(sender, receiver) outbox vectors, moved to the
// receiver at the window barrier and applied there in a total order.
//
// Background passes: each shard owns two periodic events, one every
// host.kswapd_period_ns and one every kTierMigratePeriodNs, that run each
// home host's kswapd pass and tier-migrator pass in host-id order. Hosts
// schedule no periodic events of their own, so the heap holds two tick
// events per shard at any host count; with one self-rescheduling pair
// per host, a warm-up that drains the queue host after host would run
// every other host's idle ticks too (hosts^2 events).
//
// Determinism: same seed + same shard count => bit-identical results.
#ifndef LEAP_SRC_RUNTIME_CLUSTER_H_
#define LEAP_SRC_RUNTIME_CLUSTER_H_

#include <array>
#include <iosfwd>
#include <memory>
#include <vector>

#include "src/cluster/fabric.h"
#include "src/cluster/health_monitor.h"
#include "src/cluster/slab_placer.h"
#include "src/obs/stats_sampler.h"
#include "src/obs/trace_recorder.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/runtime/shard_plan.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard_sync.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"

namespace leap {

struct ClusterConfig {
  size_t hosts = 4;
  size_t nodes = 2;
  size_t node_capacity_slabs = 4096;
  // Per-host template; medium is forced to kRemote and each host gets a
  // distinct derived seed.
  MachineConfig host;
  FabricConfig fabric;
  PlacementPolicy placement = PlacementPolicy::kPowerOfTwo;
  uint64_t seed = 42;
  // Gray-failure resilience (PR 6). `resilience` configures every host's
  // demand-read mitigation (deadline/retry, hedging, gray avoidance);
  // disabled by default, and a disabled config leaves the cluster
  // bit-identical to pre-PR-6 runs. The health monitor is created when
  // either flag asks for it: detection without mitigation
  // (health_monitor_enabled alone) is how a benchmark measures the
  // detection window on an otherwise-unmitigated run, since feeding the
  // monitor is pure observation and perturbs nothing.
  ResilienceConfig resilience;
  HealthMonitorConfig health;
  bool health_monitor_enabled = false;
  // Observability (PR 7). Both default off, and off means OFF: no recorder
  // is allocated, every layer's trace pointer stays null (one predicted
  // branch per would-be event), the sampler schedules nothing, and runs
  // are bit-identical to a build without this subsystem. Both need one
  // shard: the recorder ring and the sampler's collector are not
  // shard-safe, so the constructor rejects either at shards > 1.
  TraceConfig trace;
  StatsSamplerConfig sampler;
  // Shard count (>= 1; clamped to max(hosts, nodes) by the planner).
  size_t shards = 1;
  // Window width at shards > 1; 0 = derive FabricLookaheadNs(fabric). Any
  // width is correct (mirrors are fire-and-forget); wider means fewer
  // barriers. One shard has no peer to wait for, so its window is the
  // whole run and this is ignored.
  SimTimeNs window_ns = 0;
  // Cross-shard mirror cadence: every Nth demand miss per host sends an
  // async replica write to a foreign-shard node. 0 disables; ignored at
  // shards = 1 (there is no foreign shard).
  size_t mirror_every = 0;
};

// One workload bound to a host in the cluster.
struct ClusterAppSpec {
  size_t host = 0;
  Pid pid = 0;
  AccessStream* stream = nullptr;
  RunConfig config;
};

// Cluster-wide accounting snapshot.
struct ClusterStats {
  // Sum of every host's counters plus the cluster's own scenario counters
  // (node failures/recoveries, host joins/leaves).
  Counters totals;
  std::vector<size_t> node_slabs;     // mapped slabs per node
  std::vector<uint64_t> node_reads;   // page reads served per node
  std::vector<uint64_t> node_writes;  // page writes absorbed per node
  uint64_t fabric_ops = 0;
  uint64_t fabric_bytes = 0;
  // Whole-run mean fabric queue delay over every class (wait for a link
  // slot plus congestion stall): the contention figure fig13/fig15 report.
  double queue_delay_mean_ns = 0.0;
  // Per-link per-IoClass op/byte totals (index with
  // static_cast<size_t>(IoClass)): who is using each uplink/downlink, and
  // for what. This is what makes "the antagonist's prefetches are eating
  // node 1's downlink" a measurable statement.
  std::vector<LinkClassCounts> host_uplink_classes;   // per host
  std::vector<LinkClassCounts> node_downlink_classes;  // per node
  // Fabric queue-delay EWMA per IoClass (repair/writeback congestion no
  // longer pollutes the demand/prefetch signal the governor keys on),
  // plus the whole-run per-class mean (the reporting quantity; the EWMA
  // is a point-in-time snapshot).
  std::array<double, kIoClassCount> class_queue_delay_ewma_ns{};
  std::array<double, kIoClassCount> class_queue_delay_mean_ns{};
  // Mean end-to-end sojourn per class (IoRequest::enqueue_ts -> fabric
  // completion): queue delay says what the link added; this says what the
  // class's ops cost all-in.
  std::array<double, kIoClassCount> class_sojourn_mean_ns{};
  // Health view per node (empty when no health monitor is attached):
  // read-latency EWMA and the monitor's verdict at snapshot time.
  std::vector<double> node_health_ewma_ns;
  std::vector<NodeHealth> node_health_state;
  // Per-stage latency attribution (fabric's telescoped decomposition of
  // every stamped op's sojourn): where demand-read time actually went.
  StageBreakdown stages;

  // Tiered far memory: resident pages per tier (index with kTierCxl /
  // kTierRemote / kTierSsd), summed over hosts. Empty unless at least one
  // host runs a TieredStore; migration volumes live in `totals`
  // (tier_promotions / tier_demotions / tier_spills).
  std::vector<size_t> tier_pages;

  // Placement skew: max - min mapped slabs across nodes.
  size_t SlabImbalance() const;

  // Convenience sums over one class across all downlinks.
  uint64_t ClassOps(IoClass cls) const;
  uint64_t ClassBytes(IoClass cls) const;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  size_t num_hosts() const { return hosts_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_shards() const { return plan_.shards; }
  const ShardPlan& plan() const { return plan_; }
  // Lockstep window width (the whole run at one shard).
  SimTimeNs window_ns() const { return window_ns_; }
  // Windows executed by the last Run (lockstep rounds, jumps included).
  uint64_t windows_run() const { return windows_run_; }
  Machine& host(size_t i) { return *hosts_[i]; }
  RemoteAgent& node(size_t i) { return *nodes_[i]; }
  // Shard `s`'s event queue (introspection: pending background events).
  const EventQueue& shard_events(size_t s) const;

  // --- membership ---------------------------------------------------------
  // Host join: a new machine wired to the shared clock/pool/fabric. One
  // shard only (the plan partitions hosts at construction); throws
  // std::logic_error at shards > 1.
  size_t AddHost();
  // Host leave: returns its slabs to the pool and stops its workloads.
  void RemoveHost(size_t host);
  bool HostAlive(size_t host) const { return alive_[host] != 0; }

  // --- failure scenarios (fire on the target's home-shard queue) ----------
  // At `at`: the node fails, and every live host re-maps and re-replicates
  // the slabs that lost a replica (repair traffic rides the fabric).
  void ScheduleNodeFailure(uint32_t node, SimTimeNs at);
  void ScheduleNodeRecovery(uint32_t node, SimTimeNs at);
  void ScheduleHostLeave(size_t host, SimTimeNs at);
  // Correlated failure: every node of `group` (one rack / failure domain)
  // fails at the same instant - all fail FIRST, then repair runs, so a
  // slab whose whole replica set sat in the domain finds no survivor to
  // rebuild from (the scenario replica placement must defend against).
  // Members fail per home shard; a host's slabs only live on its own
  // shard's nodes, so each shard's repair sees all of its members down.
  void ScheduleCorrelatedFailure(std::vector<uint32_t> group, SimTimeNs at);
  // Gray node: at `at` the node's downlink serializes `stretch`x slower;
  // restored to full speed at `until` when until > at (0 = stays gray).
  void ScheduleNodeGray(uint32_t node, double stretch, SimTimeNs at,
                        SimTimeNs until = 0);
  // Transient packet-delay spike: flat +extra_ns on every op to the node
  // during [at, until) (until = 0 leaves it in force).
  void ScheduleNodeDelaySpike(uint32_t node, SimTimeNs extra_ns, SimTimeNs at,
                              SimTimeNs until = 0);
  // Fires every shard's pending events at or before `until`, outside Run:
  // scenario events scheduled after the last access (a recovery after the
  // apps finished) or driven without any workload.
  void RunEventsUntil(SimTimeNs until);

  // The health monitor that watches `node` (its home shard's); nullptr
  // unless ClusterConfig enabled resilience or the monitor.
  const HealthMonitor* health_monitor(uint32_t node) const;
  // Nullptr unless ClusterConfig::trace.enabled / sampler.enabled.
  TraceRecorder* trace() { return trace_.get(); }
  const TraceRecorder* trace() const { return trace_.get(); }
  StatsSampler* sampler() { return sampler_.get(); }
  const StatsSampler* sampler() const { return sampler_.get(); }

  // Runs all workloads concurrently across the cluster: accesses interleave
  // in simulated-time order, contending for DRAM per host and for the
  // fabric/node downlinks across hosts. Results come back in spec order;
  // throws std::out_of_range on a spec naming an unknown host.
  std::vector<RunResult> Run(std::vector<ClusterAppSpec> specs);

  // Remote (non-resident) access latency per host, accumulated over every
  // Run: each Run merges in its apps' RunResult::remote_access_latency.
  const Histogram& host_remote_latency(size_t host) const {
    return host_remote_hist_[host];
  }

  // Cluster-wide snapshot merged over shards: counters, link counts and
  // stage sums add; per-class means recompute from summed accumulators;
  // demand-stage tail percentiles recompute from merged histograms. One
  // shard's stats come back unchanged.
  ClusterStats Stats() const;

  // One-call human-readable dump of Stats(): counter totals, per-node
  // service/health tables, per-link per-class traffic, and the demand
  // stage breakdown. The benches print this instead of five hand-rolled
  // loops each.
  void DumpStats(std::ostream& out) const;

 private:
  struct Shard;

  size_t AddHostTo(Shard& shard);
  // Periodic background drivers, one of each per shard (see Shard).
  void ArmTicks(Shard& shard, bool tiered);
  void ScheduleKswapdTick(Shard& shard, SimTimeNs at);
  void ScheduleTierTick(Shard& shard, SimTimeNs at);
  Shard& HomeShard(uint32_t node) const {
    return *shards_[plan_.node_shard[node]];
  }
  void CheckNode(uint32_t node) const;
  void WorkerLoop(Shard& shard, WindowBarrier& barrier);
  void OnBarrier();  // completion hook: transfer, then advance or stop
  void ApplyPending(Shard& shard);
  void SendMirror(Shard& shard, uint32_t host, uint64_t tick, SimTimeNs now);
  // Sampler collector: snapshots governor budgets, fabric EWMAs, health
  // states, per-host memory occupancy, and the windowed demand histogram
  // (reset per tick). Strictly read-only against simulation state.
  void CollectSample(SimTimeNs now, StatsSample& sample);

  ClusterConfig config_;
  ShardPlan plan_;
  SimTimeNs window_ns_ = 1;

  // Global object tables, indexed by global id. During Run each element is
  // touched by exactly one shard's worker (hosts/alive/histograms/miss
  // ticks by the home shard; nodes by the home shard plus barrier-serial
  // mirror applies).
  std::vector<std::unique_ptr<RemoteAgent>> nodes_;
  std::vector<std::unique_ptr<Machine>> hosts_;
  std::vector<uint8_t> alive_;  // NOT vector<bool>: per-element writes must
                                // not share bytes across shards
  std::vector<Histogram> host_remote_hist_;
  std::vector<uint64_t> host_miss_ticks_;  // demand misses (mirror cadence)
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<TraceRecorder> trace_;   // null = tracing off
  std::unique_ptr<StatsSampler> sampler_;  // null = sampling off
  // Demand-miss latency within the current sampler window (reset on tick).
  Histogram demand_window_hist_;
  Rng host_seeder_;

  // Window protocol state. Written only inside the barrier completion (or
  // before workers start); the barrier's mutex publishes every write to
  // every worker before its next window.
  SimTimeNs window_start_ = 0;
  SimTimeNs window_end_ = 0;
  bool stopped_ = false;
  uint64_t windows_run_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_RUNTIME_CLUSTER_H_
