#include "src/runtime/machine.h"

#include <algorithm>
#include <cassert>
#include <span>

namespace leap {
namespace {

// CPU-side costs of the fault path.
constexpr SimTimeNs kMinorFaultNs = 900;
constexpr SimTimeNs kEvictCpuNs = 650;
// Page allocation cost: base plus a per-stale-cache-entry scan component,
// calibrated so lazy eviction averages ~2.1 us and eager ~1.35 us
// (paper: eager saves ~750 ns, 36%).
constexpr SimTimeNs kAllocBaseNs = 400;
constexpr SimTimeNs kAllocScanPerEntryNs = 22;
constexpr size_t kAllocScanCap = 56;
// kswapd reclaims when free frames drop below the low watermark, up to the
// high one (fractions of total frames).
constexpr double kLowWatermark = 0.02;
constexpr double kHighWatermark = 0.05;
// Inactive-list aging: an unconsumed prefetched page that survives this
// long without a hit has cycled to the inactive tail and is reclaimed -
// this is how cache pollution dies in the kernel even without global
// memory pressure.
constexpr SimTimeNs kPrefetchTtlNs = 50 * kNsPerMs;

}  // namespace

Machine::Machine(const MachineConfig& config)
    : Machine(config, MachineEnv{}) {}

Machine::Machine(const MachineConfig& config, const MachineEnv& env)
    : config_(config),
      rng_(config.seed),
      events_(env.shared_events != nullptr ? env.shared_events
                                           : &owned_events_),
      host_id_(env.host_id),
      trace_(env.trace),
      frames_(config.total_frames),
      policy_(env.policy) {
  if (config_.prefetch_cache_limit_pages > 0 &&
      config_.eviction != EvictionKind::kEagerLeap) {
    // The cap counts the FIFO of unconsumed prefetches, whose victim pick
    // is eager-only: under lazy LRU it would be silently ignored.
    throw std::invalid_argument(
        "leap::Machine: prefetch_cache_limit_pages needs eager eviction");
  }
  if (config_.medium == Medium::kRemote) {
    std::vector<RemoteAgent*> nodes = env.remote_pool;
    if (nodes.empty()) {
      for (size_t i = 0; i < std::max<size_t>(1, config_.remote_nodes); ++i) {
        remote_nodes_.push_back(std::make_unique<RemoteAgent>(
            static_cast<uint32_t>(i), config_.node_capacity_slabs));
        nodes.push_back(remote_nodes_.back().get());
      }
    }
    host_agent_ = std::make_unique<HostAgent>(config_.host_agent,
                                              std::move(nodes),
                                              rng_.NextU64());
    if (env.fabric != nullptr) {
      host_agent_->BindFabric(env.fabric, env.host_id);
    }
    if (env.placer != nullptr) {
      host_agent_->SetPlacer(env.placer);
    }
    host_agent_->SetCounters(&counters_);
    host_agent_->SetTrace(trace_);
    // Donor-pool exhaustion degrades to the (slower) local SSD instead of
    // silently piling onto a full node; every overflow slab is counted.
    overflow_store_ = std::make_unique<Ssd>();
    host_agent_->SetOverflowStore(overflow_store_.get());
    store_ = host_agent_.get();
    if (config_.tier.enabled) {
      // Tiered hierarchy: the data path now talks to the TieredStore,
      // which routes each page to cxl / the fabric path / local flash by
      // residency. Everything below (HostAgent mitigation, fabric QoS,
      // slab repair) is unchanged - it is simply one tier now.
      tiered_store_ = std::make_unique<TieredStore>(
          config_.tier, host_agent_.get(), overflow_store_.get());
      tiered_store_->SetCounters(&counters_);
      tiered_store_->SetTrace(trace_, host_id_);
      store_ = tiered_store_.get();
    }
  } else if (config_.medium == Medium::kHdd) {
    local_store_ = std::make_unique<Hdd>();
    store_ = local_store_.get();
  } else {
    local_store_ = std::make_unique<Ssd>();
    store_ = local_store_.get();
  }

  if (config_.path == PathKind::kDefault) {
    data_path_ =
        std::make_unique<DefaultDataPath>(config_.default_path, store_);
  } else {
    data_path_ = std::make_unique<LeapDataPath>(config_.leap_path, store_);
  }
  data_path_->SetTrace(trace_, host_id_);
  if (policy_ == nullptr) {
    owned_policy_ = MakePrefetchPolicy(
        config_.prefetcher, PolicyParams{config_.leap, GhbConfig{},
                                         config_.online_delta,
                                         config_.profile_guided});
    policy_ = owned_policy_.get();
  }
  if (config_.budget.enabled) {
    governor_ = std::make_unique<BudgetGovernor>(config_.budget, &swap_);
  }
  if (tiered_store_ != nullptr && config_.tier.migrator_enabled) {
    tier_migrator_ = std::make_unique<TierMigrator>(
        config_.tier, events_, tiered_store_.get(), rng_.NextU64());
  }
  // On a shared queue the queue's owner drives both passes (see
  // MachineEnv::shared_events).
  if (env.shared_events == nullptr) {
    ScheduleKswapd(config_.kswapd_period_ns);
    if (tier_migrator_ != nullptr) {
      tier_migrator_->Start(kTierMigratePeriodNs);
    }
  }
}

FaultContext Machine::MakeFaultContext(Pid pid, SwapSlot slot,
                                       SimTimeNs now) {
  FaultContext ctx(pid, slot, now);
  ctx.free_frames = frames_.free_count();
  ctx.total_frames = config_.total_frames;
  ctx.inflight_prefetches = cache_.prefetch_count();
  if (host_agent_ != nullptr) {
    ctx.congestion = host_agent_->congestion_signals();
  }
  if (governor_ != nullptr) {
    ctx.budget_remaining = governor_->BudgetFor(pid, now, ctx.congestion);
  }
  return ctx;
}

CandidateVec Machine::GeneratePrefetches(const FaultContext& ctx) {
  CandidateVec prefetches =
      FilterPrefetchCandidates(policy_->OnFault(ctx), ctx.slot);
  if (prefetches.size() > ctx.budget_remaining) {
    prefetches.resize(ctx.budget_remaining);  // governor's per-tenant clamp
  }
  return prefetches;
}

void Machine::NotifyPrefetchIssued(Pid pid, SwapSlot slot, SimTimeNs ready_at,
                                   SimTimeNs now) {
  counters_.Add(counter::kPrefetchIssued);
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kPrefetchIssued;
    e.ts = now;
    e.dur_ns = ready_at > now ? ready_at - now : 0;
    e.slot = slot;
    e.host = host_id_;
    e.tenant = pid;
    e.cls = IoClass::kPrefetch;
    trace_->Record(e);
  }
  policy_->OnPrefetchIssued(pid, slot, now);
  policy_->OnPrefetchComplete(pid, slot,
                              ready_at > now ? ready_at - now : 0);
  if (governor_ != nullptr) {
    governor_->OnPrefetchIssued(pid, 1);
  }
}

void Machine::NotifyPrefetchHit(Pid pid, SwapSlot slot,
                                const CacheEntry& entry, SimTimeNs now) {
  counters_.Add(counter::kPrefetchHits);
  const SimTimeNs timeliness =
      now > entry.added_at ? now - entry.added_at : 0;
  timeliness_hist_.Record(timeliness);
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kPrefetchHit;
    e.ts = now;
    e.dur_ns = timeliness;
    e.slot = slot;
    e.host = host_id_;
    e.tenant = entry.pid;
    e.cls = IoClass::kPrefetch;
    trace_->Record(e);
  }
  // The policy sees the accessing process (the do_swap_page pid, matching
  // v1); the governor's accuracy ledger credits the tenant that ISSUED the
  // prefetch (entry.pid) - in VFS mode the shared page cache lets another
  // process consume it, and crediting the accessor would read the issuer
  // as 0-accuracy, collapsing exactly the tenant whose prefetches hit.
  // Issued and Dropped are attributed to entry.pid the same way.
  policy_->OnPrefetchHit(pid, slot, timeliness);
  if (governor_ != nullptr) {
    governor_->OnPrefetchHit(entry.pid);
  }
}

void Machine::NotifyPrefetchDropped(SwapSlot slot, const CacheEntry& entry) {
  if (!entry.prefetched || entry.first_hit_at != 0) {
    return;
  }
  counters_.Add(counter::kPrefetchUnused);
  if (trace_ != nullptr) {
    // The drop funnel carries no clock; the event is timestamped at the
    // prefetch's insertion (its lifetime start), which is when the wasted
    // bandwidth was spent anyway.
    TraceEvent e;
    e.kind = TraceEventKind::kPrefetchDropped;
    e.ts = entry.added_at;
    e.slot = slot;
    e.host = host_id_;
    e.tenant = entry.pid;
    e.cls = IoClass::kPrefetch;
    trace_->Record(e);
  }
  policy_->OnPrefetchDropped(entry.pid, slot);
  if (governor_ != nullptr) {
    governor_->OnPrefetchDropped(entry.pid);
  }
}

Pid Machine::CreateProcess(size_t cgroup_limit_pages) {
  const Pid pid = next_pid_++;
  auto state = std::make_unique<ProcessState>();
  state->cgroup.set_limit_pages(cgroup_limit_pages);
  processes_[pid] = std::move(state);
  return pid;
}

size_t Machine::resident_pages(Pid pid) const {
  const auto* state = processes_.Find(pid);
  return state == nullptr ? 0 : (*state)->table.resident_pages();
}

bool Machine::IsResident(Pid pid, Vpn vpn) const {
  const auto* state = processes_.Find(pid);
  return state != nullptr && (*state)->table.IsPresent(vpn);
}

std::optional<SwapSlot> Machine::SlotOf(Pid pid, Vpn vpn) const {
  const auto* state = processes_.Find(pid);
  const SwapSlot slot =
      state == nullptr ? kInvalidSlot : (*state)->table.SlotOf(vpn);
  if (slot == kInvalidSlot) {
    return std::nullopt;
  }
  return slot;
}

void Machine::DrainEvents(SimTimeNs now) {
  if (now > last_event_drain_) {
    events_->RunUntil(now);
    last_event_drain_ = now;
  }
}

void Machine::ScheduleKswapd(SimTimeNs at) {
  events_->ScheduleAt(at, [this](SimTimeNs when) {
    KswapdTick(when);
    ScheduleKswapd(when + config_.kswapd_period_ns);
  });
}

void Machine::KswapdTick(SimTimeNs now) {
  // Both passes dequeue from an ordered list, oldest first, and stop when
  // the list runs dry, the batch is spent, or (pass 2) the oldest page is
  // still young: the work is what the tick reclaims, not the cache size.
  size_t budget = config_.kswapd_scan_batch;

  // Pass 1: retire consumed-but-lingering cache entries (lazy eviction's
  // background cleanup). Eager mode never accumulates these.
  for (; budget > 0 && cache_.stale_count() > 0; --budget) {
    const auto entry = DropCacheEntry(*cache_.OldestStale(), now);
    assert(entry.has_value() && "the stale list holds only cached slots");
    counters_.Add(counter::kLruScans);
    eviction_wait_hist_.Record(
        now > entry->first_hit_at ? now - entry->first_hit_at : 0);
    counters_.Add(counter::kEvictions);
  }

  // Pass 2: inactive-list aging - unconsumed prefetched pages that have
  // gone unreferenced for kPrefetchTtlNs have cycled to the inactive tail
  // and are reclaimed as pollution.
  for (; budget > 0; --budget) {
    const auto oldest = cache_.OldestPrefetch();
    if (!oldest.has_value() ||
        now <= cache_.Lookup(*oldest)->added_at + kPrefetchTtlNs) {
      break;
    }
    DropCacheEntry(*oldest, now);
    counters_.Add(counter::kEvictions);
  }

  // Pass 3: keep free frames above the low watermark by evicting cold
  // unconsumed cache pages.
  const size_t low = static_cast<size_t>(
      kLowWatermark * static_cast<double>(config_.total_frames));
  const size_t high = static_cast<size_t>(
      kHighWatermark * static_cast<double>(config_.total_frames));
  if (frames_.free_count() < low) {
    while (frames_.free_count() < high && budget > 0 &&
           ReclaimOneCacheVictim(now)) {
      --budget;
    }
  }
}

bool Machine::ReclaimOneCacheVictim(SimTimeNs now) {
  std::optional<SwapSlot> victim;
  if (config_.eviction == EvictionKind::kEagerLeap) {
    // Unconsumed prefetched pages leave FIFO (no history to rank them).
    victim = cache_.OldestPrefetch();
  }
  // Lazy policy (or nothing in the FIFO): the coldest cache entry that
  // holds a frame. A frameless lazy carcass at the cold end is retired on
  // the way (counts as lazy-eviction work).
  for (int tries = 0; !victim.has_value() && tries < 64; ++tries) {
    const auto coldest = cache_.ColdestSlot();
    if (!coldest.has_value()) {
      return false;
    }
    if (cache_.Lookup(*coldest)->pfn != kInvalidPfn) {
      victim = coldest;
    } else {
      const auto carcass = DropCacheEntry(*coldest, now);
      eviction_wait_hist_.Record(
          now > carcass->first_hit_at ? now - carcass->first_hit_at : 0);
      counters_.Add(counter::kLruScans);
    }
  }
  if (!victim.has_value()) {
    return false;
  }
  DropCacheEntry(*victim, now);
  counters_.Add(counter::kEvictions);
  return true;
}

SimTimeNs Machine::AllocateFrame(SimTimeNs now, Pfn* pfn) {
  // Allocation cost scales with the stale cache population the scan must
  // wade through - the waste Leap's eager eviction removes.
  const size_t scanned = std::min(cache_.stale_count(), kAllocScanCap);
  SimTimeNs cost =
      kAllocBaseNs + static_cast<SimTimeNs>(scanned) * kAllocScanPerEntryNs;
  auto allocated = frames_.Allocate();
  if (!allocated.has_value()) {
    // Direct reclaim: free a cache victim, else steal the coldest mapped
    // page from the largest process.
    if (!ReclaimOneCacheVictim(now)) {
      Pid fattest = 0;
      size_t fattest_resident = 0;
      for (const auto& [pid, state] : processes_) {
        if (state->table.resident_pages() > fattest_resident) {
          fattest_resident = state->table.resident_pages();
          fattest = pid;
        }
      }
      if (fattest != 0) {
        cost += EvictColdestOf(fattest, now);
      }
    } else {
      cost += kEvictCpuNs;
    }
    allocated = frames_.Allocate();
    if (!allocated.has_value()) {
      // Pathological: no reclaimable memory. Charge a stall and fail soft.
      *pfn = kInvalidPfn;
      alloc_hist_.Record(cost);
      return cost;
    }
  }
  *pfn = *allocated;
  alloc_hist_.Record(cost);
  return cost;
}

SimTimeNs Machine::EvictColdestOf(Pid pid, SimTimeNs now) {
  ProcessState& proc = Proc(pid);
  const auto victim = proc.table.Coldest();
  if (!victim.has_value()) {
    return 0;
  }
  const PageTableEntry entry = *proc.table.Unmap(*victim);
  proc.cgroup.Uncharge();
  // A page keeps its slot for life (rewrite in place), like the kernel
  // while a swap entry stays referenced; the first swap-out allocates it.
  SwapSlot slot = entry.slot;
  if (slot == kInvalidSlot) {
    slot = swap_.Allocate(pid, *victim);
    proc.table.SetSlot(*victim, slot);
  }
  // Drop any cache entry still keyed by this slot (delete_from_swap_cache
  // semantics) so a later fault cannot hit stale state.
  const auto cached = DropCacheEntry(slot, now);
  if (cached.has_value() && cached->first_hit_at != 0) {
    eviction_wait_hist_.Record(
        now > cached->first_hit_at ? now - cached->first_hit_at : 0);
  }
  // Swap-out: dirty (or never-backed) pages go to the backing store
  // asynchronously; the device/NIC occupancy is modeled, the CPU moves on.
  if (entry.dirty) {
    data_path_->WritePage(EvictionWrite(slot, pid, now), now, rng_);
    counters_.Add(counter::kWritebacks);
    if (config_.medium == Medium::kRemote) {
      counters_.Add(counter::kRemoteWrites);
    }
  }
  frames_.Free(entry.pfn);
  counters_.Add(counter::kEvictions);
  return kEvictCpuNs;
}

void Machine::OnPageDirtied(Pid pid, Vpn vpn, SimTimeNs now) {
  // swap_free semantics: a re-dirtied page's backing copy is stale; drop
  // any cache state keyed by the old slot and release it so the next
  // eviction allocates a fresh one.
  if (config_.vfs_mode) {
    return;
  }
  PageTable& table = Proc(pid).table;
  const SwapSlot slot = table.SlotOf(vpn);
  if (slot == kInvalidSlot) {
    return;
  }
  DropCacheEntry(slot, now);
  swap_.Release(slot);
  table.SetSlot(vpn, kInvalidSlot);
}

SimTimeNs Machine::MapPage(Pid pid, Vpn vpn, Pfn pfn, bool write,
                           SimTimeNs now) {
  ProcessState& proc = Proc(pid);
  proc.table.Map(vpn, pfn);
  proc.table.Find(vpn)->dirty = write;
  if (write) {
    OnPageDirtied(pid, vpn, now);
  }
  proc.cgroup.Charge();
  SimTimeNs cost = 0;
  while (proc.cgroup.OverLimit()) {
    const SimTimeNs c = EvictColdestOf(pid, now);
    if (c == 0) {
      break;
    }
    cost += c;
  }
  return cost;
}

void Machine::EnforcePrefetchCacheLimit(size_t incoming, SimTimeNs now) {
  if (config_.prefetch_cache_limit_pages == 0) {
    return;
  }
  // Count unconsumed prefetched entries against the cap.
  while (cache_.prefetch_count() + incoming >
         config_.prefetch_cache_limit_pages) {
    if (!ReclaimOneCacheVictim(now)) {
      break;
    }
  }
}

// Drops candidates that point at the demand page, past the end of the
// backing store, at already-cached slots, at slots whose page is currently
// mapped (the kernel analog finds those in the swap cache and skips the
// read; issuing one here could only ever be dropped on the page's next
// eviction or dirty), or that repeat an earlier candidate in the same
// batch (a duplicate would double-count Issued with only one possible
// Hit/Dropped, and leak its pre-allocated frame when the cache insert
// rejects the second copy).
CandidateVec Machine::FilterPrefetchCandidates(const CandidateVec& candidates,
                                               SwapSlot demand_slot) const {
  // Readahead is bounded by the device: the swap area's high-water mark, or
  // the file size (isize) in VFS mode.
  const SwapSlot max_slot =
      config_.vfs_mode ? vfs_file_pages_ : swap_.high_water();
  CandidateVec batch;
  for (SwapSlot slot : candidates) {
    if (slot == demand_slot || slot >= max_slot) {
      continue;
    }
    if (cache_.Lookup(slot) != nullptr) {
      continue;
    }
    if (!config_.vfs_mode) {
      auto owner = swap_.OwnerOf(slot);
      if (owner.has_value() && IsResident(owner->pid, owner->vpn)) {
        continue;
      }
    }
    // O(n^2) over <= kMaxPrefetchCandidates inline elements: cheaper than
    // any set, and still allocation-free.
    bool duplicate = false;
    for (SwapSlot seen : batch) {
      if (seen == slot) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    batch.push_back(slot);
  }
  return batch;
}

void Machine::InsertPrefetchEntries(Pid pid, const MissIo& miss,
                                    SimTimeNs now) {
  for (size_t i = 0; i < miss.prefetches.size(); ++i) {
    const SwapSlot slot = miss.prefetches[i];
    Pfn pfn = kInvalidPfn;
    AllocateFrame(now, &pfn);  // overlapped with in-flight I/O
    if (pfn == kInvalidPfn) {
      continue;
    }
    CacheEntry entry;
    entry.pfn = pfn;
    entry.pid = pid;
    entry.prefetched = true;
    entry.ready_at = miss.ready[i + 1];
    entry.added_at = now;
    if (!cache_.Insert(slot, entry)) {
      // Unreachable with deduped+filtered candidates; kept so a rejected
      // insert can never leak the frame or fake an Issued with no
      // possible Hit/Dropped.
      frames_.Free(pfn);
      continue;
    }
    cache_.PushPrefetch(slot);
    NotifyPrefetchIssued(pid, slot, entry.ready_at, now);
  }
  // memcg semantics: readahead pages are charged to the faulting cgroup,
  // so over-fetching displaces the process's own resident pages - the
  // "cache pollution occupies valuable cache space" cost (section 2.3).
  if (!config_.vfs_mode && processes_.Contains(pid)) {
    ProcessState& proc = Proc(pid);
    proc.cgroup.Charge(miss.prefetches.size());
    while (proc.cgroup.OverLimit()) {
      if (EvictColdestOf(pid, now) == 0) {
        break;
      }
    }
  }
}

// Removes the memcg charge held by an unconsumed, frame-holding cache
// entry (called when the entry is consumed or reclaimed).
void Machine::UnchargeCacheEntry(const CacheEntry& entry) {
  if (config_.vfs_mode || entry.pfn == kInvalidPfn ||
      entry.first_hit_at != 0) {
    return;
  }
  if (auto* state = processes_.Find(entry.pid)) {
    (*state)->cgroup.Uncharge();
  }
}

// Entry lifecycle: a prefetch enters the cache in flight, on the FIFO,
// and ends in a hit (ConsumeCacheEntry) or a drop here. On a hit eager
// eviction frees the entry at once; lazy eviction leaves a frameless
// carcass on the stale list, which kswapd retires through here (unless
// another drop finds it first). Removing the entry takes it off every
// list it is on. VFS page-cache entries keep their frame until
// dropped, and a dirty one is written back on the way out.
std::optional<CacheEntry> Machine::DropCacheEntry(SwapSlot slot,
                                                  SimTimeNs now) {
  auto entry = cache_.Remove(slot);
  if (!entry.has_value()) {
    return entry;
  }
  UnchargeCacheEntry(*entry);
  NotifyPrefetchDropped(slot, *entry);
  if (entry->pfn != kInvalidPfn) {
    frames_.Free(entry->pfn);
  }
  if (entry->dirty) {
    data_path_->WritePage(WritebackOp(slot, entry->pid, now), now, rng_);
    counters_.Add(counter::kWritebacks);
  }
  return entry;
}

Machine::MissIo Machine::IssueMiss(Pid pid, SwapSlot demand_slot,
                                   SimTimeNs now) {
  MissIo miss{.prefetches = GeneratePrefetches(
                  MakeFaultContext(pid, demand_slot, now))};
  EnforcePrefetchCacheLimit(miss.prefetches.size(), now);

  // Demand frame allocation is synchronous; prefetch frames are grabbed
  // while the demand I/O is in flight (their cost overlaps).
  const SimTimeNs cpu_cost = AllocateFrame(now, &miss.demand_pfn);

  // One submission: the demand page plus its readahead pages form a single
  // plug batch on the default path (merged + elevator-ordered together)
  // and a train of asynchronous per-page ops on the Leap path. Each entry
  // carries its IoClass tag - the contract the lower layers key on (the
  // demand page leads the batch only so ready[0] lines up with it here).
  // The batch, the completion times and the candidates live in fixed
  // inline storage: a miss allocates nothing on this path, and writes (or
  // copies, returning MissIo) only the slots it fills, not all 64-65.
  InlineVec<IoRequest, kMaxPrefetchCandidates + 1> batch;
  batch.push_back(DemandRead(demand_slot, pid, now));
  for (SwapSlot slot : miss.prefetches) {
    batch.push_back(PrefetchRead(slot, pid, now));
  }
  miss.ready.resize(batch.size());
  miss.demand_ready = data_path_->ReadPages(
      std::span<const IoRequest>(batch.data(), batch.size()),
      now + cpu_cost, rng_,
      std::span<SimTimeNs>(miss.ready.data(), miss.ready.size()));

  counters_.Add(counter::kDemandReads);
  counters_.Add(counter::kCacheAdds, batch.size());
  if (config_.medium == Medium::kRemote) {
    counters_.Add(counter::kRemoteReads, batch.size());
  }
  return miss;
}

void Machine::ConsumeCacheEntry(SwapSlot slot, Pid pid, Vpn vpn, bool write,
                                SimTimeNs now) {
  CacheEntry* entry = cache_.Lookup(slot);
  if (entry == nullptr) {
    return;
  }
  const bool first_hit = entry->first_hit_at == 0;
  // The cache's memcg charge moves with the frame to the mapping process
  // (MapPage re-charges below).
  UnchargeCacheEntry(*entry);
  if (first_hit) {
    entry->first_hit_at = now;
    if (entry->prefetched) {
      cache_.RemovePrefetch(slot);
      NotifyPrefetchHit(pid, slot, *entry, now);
    }
  }
  const Pfn pfn = entry->pfn;
  if (config_.eviction == EvictionKind::kEagerLeap) {
    // Eager: free the cache entry the moment the page table is updated.
    cache_.Remove(slot);
    counters_.Add(counter::kEagerFrees);
  } else {
    // Lazy: the entry lingers (frame ownership moves to the process).
    entry->pfn = kInvalidPfn;
    if (first_hit) {
      cache_.PushStale(slot);
    }
  }
  if (pfn != kInvalidPfn) {
    MapPage(pid, vpn, pfn, write, now);
  }
}

AccessResult Machine::Access(Pid pid, Vpn vpn, bool write, SimTimeNs now) {
  if (vpn >= kMaxVpn) {
    throw std::out_of_range("leap::Machine: vpn >= kMaxVpn");
  }
  DrainEvents(now);
  if (config_.vfs_mode) {
    return VfsAccess(pid, vpn, write, now);
  }

  ProcessState& proc = Proc(pid);
  if (PageTableEntry* pte = proc.table.Find(vpn)) {
    if (write && !pte->dirty) {
      pte->dirty = true;
      OnPageDirtied(pid, vpn, now);
    }
    proc.table.Touch(vpn);
    return {AccessType::kLocalHit, kLocalAccessNs};
  }

  counters_.Add(counter::kPageFaults);

  // First touch: no backing copy exists yet anywhere.
  const SwapSlot slot = proc.table.SlotOf(vpn);
  if (slot == kInvalidSlot) {
    Pfn pfn = kInvalidPfn;
    SimTimeNs cost = AllocateFrame(now, &pfn);
    cost += kMinorFaultNs;
    if (pfn != kInvalidPfn) {
      cost += MapPage(pid, vpn, pfn, write, now);
    }
    return {AccessType::kMinorFault, cost};
  }

  if (CacheEntry* entry = cache_.Lookup(slot)) {
    // Eager eviction removes the entry on this same fault (a hit consumes
    // it, a carcass is dropped), and unlinking leaves the same order
    // whether or not the entry was touched first: only lazy mode touches.
    if (config_.eviction != EvictionKind::kEagerLeap) {
      cache_.TouchLru(slot);
    }
    if (entry->first_hit_at == 0 || entry->pfn != kInvalidPfn) {
      const SimTimeNs hit_cost = data_path_->CacheHitCost(rng_);
      // The access tracker sees every do_swap_page, hits included.
      policy_->OnCacheAccess(pid, slot);
      if (fault_sink_ != nullptr) {
        fault_sink_->push_back({pid, slot, now, /*hit=*/true});
      }
      if (entry->ready_at > now) {
        // In-flight prefetch: block for the residue.
        const SimTimeNs wait = entry->ready_at - now;
        counters_.Add(counter::kCacheHits);
        counters_.Add(counter::kPrefetchWaitHits);
        ConsumeCacheEntry(slot, pid, vpn, write, now + wait);
        return {AccessType::kCacheWaitHit, wait + hit_cost};
      }
      counters_.Add(counter::kCacheHits);
      ConsumeCacheEntry(slot, pid, vpn, write, now);
      return {AccessType::kCacheHit, hit_cost};
    }
    // Consumed carcass without a frame: the data is gone (the process
    // unmapped it and the carcass was not yet collected). Treat as a miss
    // after dropping the stale entry.
    DropCacheEntry(slot, now);
  }

  counters_.Add(counter::kCacheMisses);
  if (fault_sink_ != nullptr) {
    fault_sink_->push_back({pid, slot, now, /*hit=*/false});
  }
  const MissIo miss = IssueMiss(pid, slot, now);
  InsertPrefetchEntries(pid, miss, now);
  // The demand page becomes a (consumed-on-arrival) cache entry: in lazy
  // mode its carcass lingers for kswapd; in eager mode it is freed at map
  // time, so no entry is created at all.
  if (config_.eviction == EvictionKind::kLazyLru) {
    CacheEntry entry;
    entry.pfn = kInvalidPfn;  // frame goes straight to the process
    entry.pid = pid;
    entry.ready_at = miss.demand_ready;
    entry.added_at = now;
    entry.first_hit_at = miss.demand_ready;
    if (cache_.Insert(slot, entry)) {
      cache_.PushStale(slot);
    }
  }
  if (miss.demand_pfn != kInvalidPfn) {
    MapPage(pid, vpn, miss.demand_pfn, write, now);
  }
  return {AccessType::kMiss,
          miss.demand_ready > now ? miss.demand_ready - now : 0};
}

AccessResult Machine::VfsAccess(Pid pid, Vpn vpn, bool write, SimTimeNs now) {
  // File pages: the offset itself is the backing-store slot.
  const SwapSlot slot = vpn;
  vfs_file_pages_ = std::max(vfs_file_pages_, slot + 1);
  counters_.Add(counter::kPageFaults);

  auto evict_if_over_limit = [&] {
    const size_t limit = config_.vfs_cache_limit_pages;
    while (limit != 0 && cache_.size() > limit) {
      DropCacheEntry(*cache_.ColdestSlot(), now);
      counters_.Add(counter::kEvictions);
    }
  };

  if (CacheEntry* entry = cache_.Lookup(slot)) {
    cache_.TouchLru(slot);
    entry->dirty = entry->dirty || write;
    const SimTimeNs hit_cost = data_path_->CacheHitCost(rng_);
    const bool first_hit = entry->first_hit_at == 0;
    if (first_hit) {
      entry->first_hit_at = now;
      if (entry->prefetched) {
        cache_.RemovePrefetch(slot);
        NotifyPrefetchHit(pid, slot, *entry, now);
      }
    }
    policy_->OnCacheAccess(pid, slot);
    if (fault_sink_ != nullptr) {
      fault_sink_->push_back({pid, slot, now, /*hit=*/true});
    }
    if (entry->ready_at > now) {
      const SimTimeNs wait = entry->ready_at - now;
      counters_.Add(counter::kCacheHits);
      counters_.Add(counter::kPrefetchWaitHits);
      return {AccessType::kCacheWaitHit, wait + hit_cost};
    }
    counters_.Add(counter::kCacheHits);
    return {AccessType::kCacheHit, hit_cost};
  }

  if (write) {
    // Write-allocate: full-page write needs no read.
    Pfn pfn = kInvalidPfn;
    const SimTimeNs cost = AllocateFrame(now, &pfn);
    CacheEntry entry;
    entry.pfn = pfn;
    entry.pid = pid;
    entry.ready_at = now;
    entry.added_at = now;
    entry.first_hit_at = now;
    entry.dirty = true;
    cache_.Insert(slot, entry);
    counters_.Add(counter::kCacheAdds);
    evict_if_over_limit();
    return {AccessType::kMinorFault, cost + data_path_->CacheHitCost(rng_)};
  }

  counters_.Add(counter::kCacheMisses);
  if (fault_sink_ != nullptr) {
    fault_sink_->push_back({pid, slot, now, /*hit=*/false});
  }
  const MissIo miss = IssueMiss(pid, slot, now);
  // The demand page enters the page cache ahead of its readahead pages,
  // consumed on arrival, and keeps its frame.
  CacheEntry entry;
  entry.pfn = miss.demand_pfn;
  entry.pid = pid;
  entry.ready_at = miss.demand_ready;
  entry.added_at = now;
  entry.first_hit_at = now;
  cache_.Insert(slot, entry);
  InsertPrefetchEntries(pid, miss, now);
  evict_if_over_limit();
  return {AccessType::kMiss,
          miss.demand_ready > now ? miss.demand_ready - now : 0};
}

}  // namespace leap
