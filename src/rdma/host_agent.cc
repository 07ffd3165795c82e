#include "src/rdma/host_agent.h"

#include <algorithm>
#include <stdexcept>

#include "src/cluster/slab_placer.h"

namespace leap {
namespace {

// Latency charged to a read whose every replica is down (timeout +
// recovery from elsewhere); the op is also counted as lost. Writes with no
// live replica pay the same.
constexpr SimTimeNs kFailedReadPenaltyNs = 100 * kNsPerUs;

}  // namespace

void ResilienceConfig::Validate() const {
  if (!enabled) {
    return;
  }
  if (read_deadline_ns == 0) {
    throw std::invalid_argument(
        "ResilienceConfig: read_deadline_ns must be > 0");
  }
  if (max_read_retries == 0) {
    throw std::invalid_argument(
        "ResilienceConfig: max_read_retries must be >= 1 when enabled "
        "(disable resilience instead of configuring zero retries)");
  }
  if (retry_backoff_ns == 0) {
    throw std::invalid_argument(
        "ResilienceConfig: retry_backoff_ns must be > 0");
  }
  if (backoff_multiplier < 1.0) {
    throw std::invalid_argument(
        "ResilienceConfig: backoff_multiplier must be >= 1 (backoff must "
        "be monotone non-decreasing across attempts)");
  }
  if (hedge_enabled && hedge_p99_factor <= 0.0) {
    throw std::invalid_argument(
        "ResilienceConfig: hedge_p99_factor must be > 0");
  }
  if (gray_probe_interval == 0) {
    throw std::invalid_argument(
        "ResilienceConfig: gray_probe_interval must be >= 1");
  }
}

HostAgent::HostAgent(const HostAgentConfig& config,
                     std::vector<RemoteAgent*> remote_nodes, uint64_t seed)
    : config_(config),
      nodes_(std::move(remote_nodes)),
      nic_(config.nic),
      placement_rng_(seed),
      default_placer_(std::make_unique<PowerOfTwoPlacer>()),
      placer_(default_placer_.get()) {
  for (RemoteAgent* node : nodes_) {
    const uint32_t id = node->node_id();
    if (id >= node_by_id_.size()) {
      node_by_id_.resize(id + 1, nullptr);
    }
    if (node_by_id_[id] == nullptr) {
      node_by_id_[id] = node;
    }
  }
}

HostAgent::~HostAgent() = default;

void HostAgent::BindFabric(PageTransport* fabric, uint32_t host_id) {
  host_id_ = host_id;
  fabric_ = fabric;
  nic_.BindFabric(fabric, host_id);
}

void HostAgent::SetPlacer(SlabPlacer* placer) {
  placer_ = placer != nullptr ? placer : default_placer_.get();
}

void HostAgent::SetResilience(const ResilienceConfig& resilience) {
  resilience.Validate();
  resilience_ = resilience;
}

RemoteAgent* HostAgent::ServingNode(const SlabMapping& mapping,
                                    bool* failover) const {
  for (size_t i = 0; i < mapping.nodes.size(); ++i) {
    RemoteAgent* node = Node(mapping.nodes[i]);
    if (node != nullptr && !node->failed()) {
      *failover = i > 0;
      return node;
    }
  }
  *failover = false;
  return nullptr;
}

RemoteAgent* HostAgent::FirstLiveNonGray(const SlabMapping& mapping) const {
  if (health_ == nullptr) {
    return nullptr;
  }
  for (uint32_t id : mapping.nodes) {
    RemoteAgent* node = Node(id);
    if (node != nullptr && !node->failed() && !health_->IsGray(id)) {
      return node;
    }
  }
  return nullptr;
}

RemoteAgent* HostAgent::NextLiveReplicaAfter(const SlabMapping& mapping,
                                             const RemoteAgent* exclude) const {
  // Round-robin from just past `exclude` in mapping order, so successive
  // retries of one read spread across the replica set.
  const size_t n = mapping.nodes.size();
  size_t start = 0;
  for (size_t i = 0; i < n; ++i) {
    if (exclude != nullptr && mapping.nodes[i] == exclude->node_id()) {
      start = i + 1;
      break;
    }
  }
  for (size_t k = 0; k < n; ++k) {
    RemoteAgent* node = Node(mapping.nodes[(start + k) % n]);
    if (node != nullptr && !node->failed() && node != exclude) {
      return node;
    }
  }
  return nullptr;
}

RemoteAgent* HostAgent::NextFastestLiveReplica(
    const SlabMapping& mapping, const RemoteAgent* serving) const {
  RemoteAgent* best = nullptr;
  double best_ewma = 0.0;
  for (uint32_t id : mapping.nodes) {
    RemoteAgent* node = Node(id);
    if (node == nullptr || node->failed() || node == serving) {
      continue;
    }
    const double ewma = health_ != nullptr ? health_->NodeEwmaNs(id) : 0.0;
    if (best == nullptr || ewma < best_ewma) {
      best = node;
      best_ewma = ewma;
    }
  }
  return best;
}

void HostAgent::EnsureSlabMapped(SwapSlot slot) {
  const size_t slab = slot / config_.slab_pages;
  while (slab_map_.size() <= slab) {
    SlabMapping mapping;
    const size_t replicas =
        std::max<size_t>(1, std::min(config_.replicas, nodes_.size()));
    for (size_t r = 0; r < replicas; ++r) {
      const uint32_t node_id =
          placer_->Pick(nodes_, mapping.nodes, host_id_, slab_map_.size(),
                        placement_rng_);
      if (node_id == SlabPlacer::kNoNode) {
        break;  // pool out of eligible capacity for further replicas
      }
      RemoteAgent* node = Node(node_id);
      if (node == nullptr || !node->MapSlab()) {
        break;
      }
      mapping.nodes.push_back(node_id);
    }
    if (mapping.nodes.empty()) {
      // Nowhere in the pool to put even the primary: the slab degrades to
      // the overflow medium. A counted event, not a silent fallback.
      mapping.overflow = true;
      ++overflow_slabs_;
      ++capacity_exhausted_events_;
      Count(counter::kRemoteCapacityExhausted);
    }
    slab_map_.push_back(std::move(mapping));
  }
}

const SlabMapping& HostAgent::MappingForSlot(SwapSlot slot) {
  EnsureSlabMapped(slot);
  return slab_map_[slot / config_.slab_pages];
}

size_t HostAgent::QueueFor(SwapSlot slot) const {
  // Splitmix-style scramble so contiguous slots land on distinct queues.
  uint64_t z = slot + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return static_cast<size_t>(z % nic_.num_queues());
}

void HostAgent::ReadPages(std::span<const IoRequest> reqs, SimTimeNs now,
                          Rng& rng, std::span<SimTimeNs> ready_at) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    const SwapSlot slot = reqs[i].slot;
    EnsureSlabMapped(slot);
    const SlabMapping& mapping = slab_map_[slot / config_.slab_pages];
    if (mapping.overflow && overflow_store_ != nullptr) {
      overflow_store_->ReadPages({&reqs[i], 1}, now, rng, {&ready_at[i], 1});
      Count(counter::kOverflowReads);
      continue;
    }
    bool failover = false;
    RemoteAgent* node = ServingNode(mapping, &failover);
    if (node == nullptr && !mapping.nodes.empty()) {
      // Every replica is down: charge a timeout-and-recover penalty so the
      // run keeps making (degraded) progress.
      ready_at[i] = now + kFailedReadPenaltyNs;
      Count(counter::kRemoteReadsLost);
      continue;
    }
    // Gray avoidance: a node that answers 10-100x late silently poisons
    // the tail without ever tripping the crash-failover path above. When
    // the health monitor marks the would-be serving node gray, steer the
    // read to a live non-gray replica (safe for read-your-writes: a gray
    // node is live, so every replica in the set absorbed the writes).
    RemoteAgent* primary = node;
    bool rerouted = false;
    if (resilience_.enabled && node != nullptr && health_ != nullptr &&
        health_->IsGray(node->node_id())) {
      RemoteAgent* alt = FirstLiveNonGray(mapping);
      if (alt != nullptr && alt != node) {
        node = alt;
        rerouted = true;
        Count(counter::kReadsRerouted);
        Trace(TraceEventKind::kReadReroute, reqs[i], now, alt->node_id());
      }
    }
    if (failover) {
      Count(counter::kRemoteFailovers);
    }
    const uint32_t target = node != nullptr ? node->node_id() : 0;
    SimTimeNs done =
        nic_.SubmitPageOpTo(target, QueueFor(slot), reqs[i], now, rng);
    if (node != nullptr) {
      node->CountRead();
      if (reqs[i].cls == IoClass::kDemandRead) {
        // Demand completions feed the health monitor's per-node EWMAs
        // (prefetch latency is policy-shaped under QoS schedulers, so it
        // would pollute the outlier signal).
        RecordHealth(target, done - now, now);
        if (resilience_.enabled) {
          done = MitigateDemandRead(reqs[i], mapping, node, primary,
                                    rerouted, done, now, rng);
        }
      }
    }
    ready_at[i] = done;
  }
}

SimTimeNs HostAgent::MitigateDemandRead(const IoRequest& req,
                                        const SlabMapping& mapping,
                                        RemoteAgent* serving,
                                        RemoteAgent* primary, bool rerouted,
                                        SimTimeNs first_done, SimTimeNs now,
                                        Rng& rng) {
  SimTimeNs best = first_done;

  // Gray-primary probe: avoidance starves the monitor of samples from the
  // node it is avoiding, so a recovered node would stay gray forever.
  // Every Nth rerouted read duplicates to the gray primary; its completion
  // feeds the monitor (and can only help the read, since the overall
  // completion takes the min). The probe keeps the DEMAND class: health is
  // judged on demand-lane latency, and a background-class probe would
  // measure the QoS backlog instead, pinning a recovered node gray.
  if (rerouted && primary != nullptr && !primary->failed() &&
      reroute_probe_tick_++ % resilience_.gray_probe_interval == 0) {
    const SimTimeNs probe_done = nic_.SubmitPageOpTo(
        primary->node_id(), QueueFor(req.slot + 1), req, now, rng);
    primary->CountRead();
    RecordHealth(primary->node_id(), probe_done - now, now);
    best = std::min(best, probe_done);
  }

  // Hedged read: when the first attempt outlives the p99-based hedge
  // delay, race a duplicate against the next-fastest live replica and take
  // the earlier completion. The duplicate is IoClass::kHedge - background
  // on the links - so hedging can never displace first-issue demand reads.
  // Every hedge delay is at least min(floor, deadline), so a read done by
  // then cannot hedge and skips the p99 lookup (a histogram walk).
  const SimTimeNs min_hedge_delay =
      std::min(resilience_.hedge_floor_ns, resilience_.read_deadline_ns);
  if (resilience_.hedge_enabled && health_ != nullptr &&
      best > now + min_hedge_delay) {
    const SimTimeNs p99 = health_->ReadLatencyP99Ns();
    if (p99 > 0) {
      SimTimeNs hedge_delay = std::max(
          resilience_.hedge_floor_ns,
          static_cast<SimTimeNs>(static_cast<double>(p99) *
                                 resilience_.hedge_p99_factor));
      hedge_delay = std::min(hedge_delay, resilience_.read_deadline_ns);
      if (best > now + hedge_delay) {
        RemoteAgent* alt = NextFastestLiveReplica(mapping, serving);
        if (alt != nullptr) {
          Count(counter::kHedgedReads);
          IoRequest hedge = req;
          hedge.cls = IoClass::kHedge;
          const SimTimeNs issue = now + hedge_delay;
          const SimTimeNs hedge_done = nic_.SubmitPageOpTo(
              alt->node_id(), QueueFor(req.slot + 2), hedge, issue, rng);
          alt->CountRead();
          Trace(TraceEventKind::kHedgeIssued, hedge, issue, alt->node_id());
          // Deliberately NOT fed to the health monitor: a hedge rides the
          // background lane, so its completion measures QoS queueing, not
          // node health - recording it would convict healthy nodes of the
          // scheduler's own backlog and cascade reroutes onto nowhere.
          if (hedge_done < best) {
            Count(counter::kHedgeWins);
            Trace(TraceEventKind::kHedgeWin, hedge, hedge_done,
                  alt->node_id(), best - hedge_done);
            best = hedge_done;
          }
        }
      }
    }
  }

  // Deadline + retry-with-backoff: the attempt is declared late one
  // deadline after its issue; the retry goes to the next live replica
  // (round-robin) after a backoff that grows per attempt. The original
  // attempt stays in flight - completion is the min across attempts - so
  // a retry can never make a read slower.
  SimTimeNs issue = now;
  SimTimeNs backoff = resilience_.retry_backoff_ns;
  const RemoteAgent* last = serving;
  for (size_t attempt = 0; attempt < resilience_.max_read_retries &&
                           best > issue + resilience_.read_deadline_ns;
       ++attempt) {
    Count(counter::kReadDeadlineMisses);
    Trace(TraceEventKind::kDeadlineMiss, req,
          issue + resilience_.read_deadline_ns,
          last != nullptr ? last->node_id() : 0);
    RemoteAgent* alt = NextLiveReplicaAfter(mapping, last);
    if (alt == nullptr) {
      break;  // nowhere else to go; the in-flight attempt is the answer
    }
    issue += resilience_.read_deadline_ns + backoff;
    backoff = static_cast<SimTimeNs>(static_cast<double>(backoff) *
                                     resilience_.backoff_multiplier);
    Count(counter::kReadRetries);
    const SimTimeNs retry_done = nic_.SubmitPageOpTo(
        alt->node_id(), QueueFor(req.slot + 3 + attempt), req, issue, rng);
    Trace(TraceEventKind::kReadRetry, req, issue, alt->node_id());
    alt->CountRead();
    RecordHealth(alt->node_id(), retry_done - issue, issue);
    best = std::min(best, retry_done);
    last = alt;
  }
  return best;
}

SimTimeNs HostAgent::WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) {
  const SwapSlot slot = req.slot;
  const SlabMapping& mapping = MappingForSlot(slot);
  if (mapping.overflow && overflow_store_ != nullptr) {
    Count(counter::kOverflowWrites);
    return overflow_store_->WritePage(req, now, rng);
  }
  // Replicated write: issue to every live replica, complete when all
  // complete. Replicas that are down miss the write (repair re-syncs them).
  SimTimeNs done = now;
  if (mapping.nodes.empty()) {
    // Best-effort path for agents with no overflow store (standalone use).
    return nic_.SubmitPageOpTo(0, QueueFor(slot), req, now, rng);
  }
  bool any_live = false;
  for (size_t r = 0; r < mapping.nodes.size(); ++r) {
    RemoteAgent* node = Node(mapping.nodes[r]);
    if (node == nullptr || node->failed()) {
      continue;
    }
    any_live = true;
    done = std::max(done,
                    nic_.SubmitPageOpTo(node->node_id(), QueueFor(slot + r),
                                        req, now, rng));
    node->CountWrite();
  }
  if (!any_live) {
    Count(counter::kRemoteWritesLost);
    return now + kFailedReadPenaltyNs;
  }
  return done;
}

void HostAgent::WriteTag(SwapSlot slot, uint64_t tag, SimTimeNs now,
                         Rng& rng) {
  const SlabMapping& mapping = MappingForSlot(slot);
  if (mapping.overflow) {
    overflow_tags_[slot] = tag;
  } else {
    for (uint32_t node_id : mapping.nodes) {
      RemoteAgent* node = Node(node_id);
      if (node == nullptr) {
        continue;
      }
      if (node->failed()) {
        // The down replica misses the write; drop its stale copy so a
        // later recovery cannot resurrect the old value (ReadTag falls
        // through to a replica that has the page).
        node->DropPage(PageKey(slot));
      } else {
        node->StorePage(PageKey(slot), tag);
      }
    }
  }
  WritePage(WritebackOp(slot, 0, now), now, rng);
}

std::optional<uint64_t> HostAgent::ReadTag(SwapSlot slot) const {
  const size_t slab = slot / config_.slab_pages;
  if (slab >= slab_map_.size()) {
    return std::nullopt;
  }
  const SlabMapping& mapping = slab_map_[slab];
  if (mapping.overflow) {
    const uint64_t* tag = overflow_tags_.Find(slot);
    return tag == nullptr ? std::nullopt : std::optional<uint64_t>(*tag);
  }
  for (uint32_t node_id : mapping.nodes) {
    RemoteAgent* node = Node(node_id);
    if (node == nullptr || node->failed()) {
      continue;
    }
    // Fall through to the next replica when this one lacks the page (it
    // was down for the write and its stale copy was invalidated).
    const auto tag = node->LoadPage(PageKey(slot));
    if (tag.has_value()) {
      return tag;
    }
  }
  return std::nullopt;
}

size_t HostAgent::RepairSlabsAfterFailure(uint32_t failed_node,
                                          SimTimeNs now) {
  RemoteAgent* failed = Node(failed_node);
  size_t repaired = 0;
  for (size_t slab = 0; slab < slab_map_.size(); ++slab) {
    SlabMapping& mapping = slab_map_[slab];
    if (mapping.overflow) {
      continue;
    }
    auto it = std::find(mapping.nodes.begin(), mapping.nodes.end(),
                        failed_node);
    if (it == mapping.nodes.end()) {
      continue;
    }
    mapping.nodes.erase(it);
    if (failed != nullptr) {
      failed->UnmapSlab();
      // The failed node lost its lease on this slab: garbage-collect its
      // copy so being re-picked after recovery cannot serve stale tags.
      DropSlabTags(failed, slab);
    }
    // Surviving replica to re-replicate from (may be none when the slab
    // was single-replica: its pages are lost until rewritten).
    RemoteAgent* source = nullptr;
    for (uint32_t id : mapping.nodes) {
      RemoteAgent* node = Node(id);
      if (node != nullptr && !node->failed()) {
        source = node;
        break;
      }
    }
    const uint32_t replacement = placer_->Pick(
        nodes_, mapping.nodes, host_id_, slab, placement_rng_);
    if (replacement == SlabPlacer::kNoNode) {
      // Degraded: the slab keeps running with fewer replicas.
      ++capacity_exhausted_events_;
      Count(counter::kRemoteCapacityExhausted);
      continue;
    }
    RemoteAgent* target = Node(replacement);
    if (target == nullptr || !target->MapSlab()) {
      continue;
    }
    mapping.nodes.push_back(replacement);
    ++repaired;
    Count(counter::kSlabRepairs);
    if (source != nullptr) {
      // Re-replication traffic rides the same NIC/fabric as foreground
      // I/O, so repair storms congest the cluster like they would in life.
      const SwapSlot base = static_cast<SwapSlot>(slab) * config_.slab_pages;
      for (size_t p = 0; p < config_.slab_pages; ++p) {
        const auto tag = source->LoadPage(PageKey(base + p));
        if (tag.has_value()) {
          target->StorePage(PageKey(base + p), *tag);
          nic_.SubmitPageOpTo(replacement, QueueFor(base + p),
                              RepairCopy(base + p, now), now,
                              placement_rng_);
          Count(counter::kRepairPageCopies);
        }
      }
    }
  }
  return repaired;
}

void HostAgent::DropSlabTags(RemoteAgent* node, size_t slab) const {
  const SwapSlot base = static_cast<SwapSlot>(slab) * config_.slab_pages;
  for (size_t p = 0; p < config_.slab_pages; ++p) {
    node->DropPage(PageKey(base + p));
  }
}

void HostAgent::ReleaseAllSlabs() {
  for (size_t slab = 0; slab < slab_map_.size(); ++slab) {
    SlabMapping& mapping = slab_map_[slab];
    if (mapping.overflow) {
      continue;
    }
    for (uint32_t id : mapping.nodes) {
      if (RemoteAgent* node = Node(id)) {
        node->UnmapSlab();
        DropSlabTags(node, slab);
      }
    }
    mapping.nodes.clear();
  }
  slab_map_.clear();
  overflow_slabs_ = 0;
  overflow_tags_.Clear();
}

double HostAgent::MeanReadLatencyNs() const {
  return static_cast<double>(config_.nic.base_mean_ns +
                             kRdmaSerializationNs);
}

std::vector<size_t> HostAgent::NodeLoads() const {
  std::vector<size_t> loads;
  loads.reserve(nodes_.size());
  for (const RemoteAgent* node : nodes_) {
    loads.push_back(node->mapped_slabs());
  }
  return loads;
}

}  // namespace leap
