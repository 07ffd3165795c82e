// Host-side agent: maps the local swap space onto remote memory slabs and
// serves page reads/writes over the RDMA NIC.
//
// Follows the paper's section 4.4/4.5 design: the remote address space is
// split into fixed-size slabs; slabs are placed across remote machines by a
// pluggable SlabPlacer (power-of-two-choices by default) to balance load;
// writes are replicated to `replicas` nodes for fault tolerance, reads go
// to the primary unless it failed (counted failover to a live replica).
// Implements BackingStore so the paging data paths treat remote memory
// exactly like a (much faster) swap device.
//
// Cluster wiring (all optional; single-host runs skip every hook):
//  - BindFabric: page ops ride a shared multi-host fabric instead of the
//    private-link NIC model, so latency reflects cluster contention.
//  - SetPlacer / SetCounters: placement policy override and surfacing of
//    remote-side events (capacity exhaustion, failovers, repairs) in the
//    owning machine's counters.
//  - SetOverflowStore: when the donor pool has no free slab anywhere, the
//    slab overflows to this (slower) medium instead of silently landing on
//    a full node - graceful degradation, counted per slab.
//  - RepairSlabsAfterFailure: re-maps every slab that lost a replica to a
//    failed node onto a fresh node and re-replicates its pages from a
//    surviving replica, preserving read-your-writes across the re-mapping.
#ifndef LEAP_SRC_RDMA_HOST_AGENT_H_
#define LEAP_SRC_RDMA_HOST_AGENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/container/flat_map.h"
#include "src/obs/trace_recorder.h"
#include "src/rdma/rdma_nic.h"
#include "src/rdma/remote_agent.h"
#include "src/sim/rng.h"
#include "src/sim/types.h"
#include "src/stats/counters.h"
#include "src/storage/backing_store.h"

namespace leap {

class SlabPlacer;

// Node-health view the agent consults for gray-failure mitigation and
// feeds with read completions. Kept abstract here (like PageTransport in
// rdma_nic.h) so the rdma layer never depends on the cluster layer;
// src/cluster/health_monitor.h implements it.
class NodeHealthTracker {
 public:
  virtual ~NodeHealthTracker() = default;

  // One completed read attempt against `node`: latency from issue to
  // completion. The implementation maintains per-node EWMAs and outlier
  // scores off this stream.
  virtual void RecordRead(uint32_t node, SimTimeNs latency_ns,
                          SimTimeNs now) = 0;

  // True when the node is currently marked gray (answering, but an
  // outlier-slow one); replica selection steers demand reads away.
  virtual bool IsGray(uint32_t node) const = 0;

  // Per-node read-latency EWMA in ns (0 before the first sample). Used to
  // rank replicas ("next-fastest") for hedged reads.
  virtual double NodeEwmaNs(uint32_t node) const = 0;

  // Cluster-wide p99 of recorded read latencies, the base of the hedge
  // delay; 0 until enough samples accumulated to make p99 meaningful.
  virtual SimTimeNs ReadLatencyP99Ns() const = 0;
};

// Gray-failure mitigation knobs for remote demand reads. Disabled by
// default: every parameter below is inert and the read path is
// bit-identical to the unmitigated agent. Before PR 6 the failover retry
// behavior was a fixed, unconfigurable constant baked into ReadPages;
// these knobs replace that latent bug class, and Validate() rejects the
// nonsense values that used to be silently accepted (0 retries, a
// backoff that shrinks, a zero deadline).
struct ResilienceConfig {
  bool enabled = false;

  // --- deadline + retry ---------------------------------------------------
  // A demand read whose attempt would complete later than issue + deadline
  // counts a deadline miss and is re-issued against the next live replica.
  SimTimeNs read_deadline_ns = 100 * kNsPerUs;
  // Maximum re-issues per demand read (>= 1 when enabled).
  size_t max_read_retries = 2;
  // Wait after a deadline miss before the retry goes out; grows by
  // backoff_multiplier per attempt (must be monotone: multiplier >= 1).
  SimTimeNs retry_backoff_ns = 10 * kNsPerUs;
  double backoff_multiplier = 2.0;

  // --- hedged reads -------------------------------------------------------
  // When the first attempt would outlive the hedge delay, race a duplicate
  // (IoClass::kHedge, background on the links) against the next-fastest
  // live replica and take the earlier completion.
  bool hedge_enabled = true;
  // Hedge delay = max(floor, factor * monitor p99), clamped to the read
  // deadline. The p99 base is the classic "defer hedging past the tail
  // knee" rule (Dean & Barroso, The Tail at Scale).
  double hedge_p99_factor = 1.0;
  SimTimeNs hedge_floor_ns = 20 * kNsPerUs;

  // --- gray-node avoidance ------------------------------------------------
  // Demand reads always steer off a gray-marked primary onto a live
  // non-gray replica (read-your-writes holds: a gray node is live, so every
  // replica in the set absorbed the writes).
  // Every Nth rerouted read also probes the gray primary with a duplicate
  // kHedge op (completion takes the min), so the monitor keeps receiving
  // fresh samples and can clear the node after it recovers.
  size_t gray_probe_interval = 128;

  // Throws std::invalid_argument on out-of-range values; no-op when
  // enabled is false.
  void Validate() const;
};

struct HostAgentConfig {
  size_t slab_pages = 256 * 256 / 4;  // 64 MB slabs (4KB pages)
  size_t replicas = 2;                // primary + 1 backup
  RdmaNicConfig nic;
};

// Placement record for one slab.
struct SlabMapping {
  std::vector<uint32_t> nodes;  // nodes[0] = primary
  // Donor pool had no eligible capacity: the slab lives on the overflow
  // store (or, lacking one, on a best-effort NIC path).
  bool overflow = false;
};

class HostAgent : public BackingStore {
 public:
  // `remote_nodes` is the donor pool; the agent keeps references only.
  HostAgent(const HostAgentConfig& config,
            std::vector<RemoteAgent*> remote_nodes, uint64_t seed);
  ~HostAgent() override;

  // BackingStore: tagged batches; the IoClass/tenant tags ride through the
  // NIC onto the fabric's link schedulers unchanged.
  void ReadPages(std::span<const IoRequest> reqs, SimTimeNs now, Rng& rng,
                 std::span<SimTimeNs> ready_at) override;
  SimTimeNs WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) override;
  std::string name() const override { return "remote-memory"; }
  double MeanReadLatencyNs() const override;

  // --- cluster wiring -----------------------------------------------------
  void BindFabric(PageTransport* fabric, uint32_t host_id);
  void SetPlacer(SlabPlacer* placer);
  void SetCounters(Counters* counters) { counters_ = counters; }
  void SetOverflowStore(BackingStore* store) { overflow_store_ = store; }
  // Gray-failure mitigation: validates and installs the config (demand
  // reads gain deadline/retry, hedging, and gray avoidance), and attaches
  // the health view those mechanisms consult and feed.
  void SetResilience(const ResilienceConfig& resilience);
  void SetHealthTracker(NodeHealthTracker* health) { health_ = health; }
  // Flight recorder for mitigation decisions (reroute / hedge / deadline
  // miss / retry); null keeps the path untouched.
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }
  const ResilienceConfig& resilience() const { return resilience_; }
  uint32_t host_id() const { return host_id_; }

  // Congestion snapshot for prefetch policies (FaultContext::congestion):
  // the bound fabric's queue-delay EWMAs (0 standalone) plus this agent's
  // cumulative capacity-exhaustion ticks. A few loads; called per fault.
  // The per-class demand/prefetch EWMAs are the ones congestion control
  // keys on - the aggregate EWMA also counts writeback/eviction/repair
  // traffic and is kept for reporting only.
  CongestionSignals congestion_signals() const {
    CongestionSignals signals;
    if (fabric_ != nullptr) {
      signals.queue_delay_ewma_ns = fabric_->QueueDelayEwmaNs();
      signals.demand_queue_delay_ewma_ns =
          fabric_->QueueDelayEwmaNs(IoClass::kDemandRead);
      signals.prefetch_queue_delay_ewma_ns =
          fabric_->QueueDelayEwmaNs(IoClass::kPrefetch);
    }
    signals.capacity_exhausted_total = capacity_exhausted_events_;
    return signals;
  }

  // Re-maps every slab with a replica on `failed_node` and re-replicates
  // its pages from a surviving replica (repair traffic rides the NIC /
  // fabric at `now`). Returns the number of slabs repaired.
  size_t RepairSlabsAfterFailure(uint32_t failed_node, SimTimeNs now);

  // Host leave: returns every mapped slab to the donor pool.
  void ReleaseAllSlabs();

  // Content-tag plumbing for integration tests (read-your-writes through
  // real slab/node routing). The write rides the NIC as a kWriteback op.
  void WriteTag(SwapSlot slot, uint64_t tag, SimTimeNs now, Rng& rng);
  std::optional<uint64_t> ReadTag(SwapSlot slot) const;

  // Slab of a slot, mapping it on demand (first touch maps the slab).
  const SlabMapping& MappingForSlot(SwapSlot slot);
  size_t mapped_slab_count() const { return slab_map_.size(); }
  size_t overflow_slab_count() const { return overflow_slabs_; }
  const RdmaNic& nic() const { return nic_; }

  // Per-node mapped-slab counts, for balance assertions.
  std::vector<size_t> NodeLoads() const;

 private:
  // Tag-store key: slots are host-local, but donor nodes are shared by
  // every host in a cluster, so the key namespaces the slot by host id.
  uint64_t PageKey(SwapSlot slot) const {
    return (static_cast<uint64_t>(host_id_) << 48) ^ slot;
  }
  // Lease teardown: a slab unmapped from `node` leaves no tags behind, so
  // a later re-placement on the same node cannot resurrect stale data.
  void DropSlabTags(RemoteAgent* node, size_t slab) const;
  void EnsureSlabMapped(SwapSlot slot);
  // Queue selection: hash the slot so one process's sequential pages spread
  // across queues, like per-core submission in the kernel.
  size_t QueueFor(SwapSlot slot) const;
  // The pool's node with id `id`; nullptr for a node outside the pool.
  RemoteAgent* Node(uint32_t id) const {
    return id < node_by_id_.size() ? node_by_id_[id] : nullptr;
  }
  // First live node of `mapping`; sets `*failover` when it is not the
  // primary. nullptr when every replica is down.
  RemoteAgent* ServingNode(const SlabMapping& mapping, bool* failover) const;
  // First live replica the health monitor does NOT mark gray; nullptr when
  // every live replica is gray (the caller falls back to the gray one).
  RemoteAgent* FirstLiveNonGray(const SlabMapping& mapping) const;
  // Live replica after `exclude` in mapping order (retry round-robin);
  // nullptr when `exclude` is the only live replica.
  RemoteAgent* NextLiveReplicaAfter(const SlabMapping& mapping,
                                    const RemoteAgent* exclude) const;
  // Live replica != `serving` with the lowest health EWMA (hedge target).
  RemoteAgent* NextFastestLiveReplica(const SlabMapping& mapping,
                                      const RemoteAgent* serving) const;
  // Post-first-attempt tail mitigation for one demand read: gray-probe
  // duplicate, p99-delayed hedge, then deadline-paced retries. Returns the
  // earliest completion across all attempts.
  SimTimeNs MitigateDemandRead(const IoRequest& req, const SlabMapping& mapping,
                               RemoteAgent* serving, RemoteAgent* primary,
                               bool rerouted, SimTimeNs first_done,
                               SimTimeNs now, Rng& rng);
  void RecordHealth(uint32_t node, SimTimeNs latency, SimTimeNs now) const {
    if (health_ != nullptr) {
      health_->RecordRead(node, latency, now);
    }
  }
  void Count(CounterId id, uint64_t delta = 1) {
    if (counters_ != nullptr) {
      counters_->Add(id, delta);
    }
  }
  // One mitigation instant onto the flight recorder; `node` is the node
  // the decision targeted, `dur_ns` kind-specific (0 for most).
  void Trace(TraceEventKind kind, const IoRequest& req, SimTimeNs ts,
             uint32_t node, uint64_t dur_ns = 0) const {
    if (trace_ == nullptr) {
      return;
    }
    TraceEvent e;
    e.kind = kind;
    e.ts = ts;
    e.dur_ns = dur_ns;
    e.slot = req.slot;
    e.host = host_id_;
    e.node = node;
    e.tenant = req.tenant;
    e.cls = req.cls;
    trace_->Record(e);
  }

  HostAgentConfig config_;
  std::vector<RemoteAgent*> nodes_;
  // Node id -> its entry of nodes_, null for ids outside the pool (the
  // lookup sits on every remote read, so it indexes instead of scanning).
  std::vector<RemoteAgent*> node_by_id_;
  RdmaNic nic_;
  Rng placement_rng_;
  std::vector<SlabMapping> slab_map_;  // indexed by slab id
  size_t overflow_slabs_ = 0;

  std::unique_ptr<SlabPlacer> default_placer_;  // power-of-two-choices
  SlabPlacer* placer_;                          // never null
  Counters* counters_ = nullptr;
  PageTransport* fabric_ = nullptr;  // congestion telemetry source
  ResilienceConfig resilience_;      // disabled by default
  NodeHealthTracker* health_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  uint64_t reroute_probe_tick_ = 0;  // paces gray-primary probe duplicates
  uint64_t capacity_exhausted_events_ = 0;
  BackingStore* overflow_store_ = nullptr;
  // Tags for overflow slabs (the overflow store holds payloads in real
  // life; here, tags keyed by slot like the nodes do).
  FlatMap<uint64_t, uint64_t> overflow_tags_;
  uint32_t host_id_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_RDMA_HOST_AGENT_H_
