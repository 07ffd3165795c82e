// The simulated host: local DRAM, page tables, swap cache, reclaim, a
// paging (or VFS) data path to a backing medium, and a pluggable prefetch
// policy (optionally clamped by a per-tenant budget governor). This is the
// composition point where Leap's three components
// (process-isolated tracking, majority prefetching, eager eviction) replace
// their legacy counterparts.
//
// Per-page state is kept once: each process holds one record per vpn (PTE,
// swap slot and resident-LRU links, src/mem/page_table.h), each swap-cache
// entry carries its LRU, prefetch-FIFO and stale-list links
// (src/mem/page_cache.h), and the swap manager keeps only per-slot owners
// and counts. A fault that hits the cache reads one page record and one
// cache entry.
#ifndef LEAP_SRC_RUNTIME_MACHINE_H_
#define LEAP_SRC_RUNTIME_MACHINE_H_

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/container/flat_map.h"
#include "src/core/leap.h"
#include "src/mem/cgroup.h"
#include "src/mem/frame_pool.h"
#include "src/mem/page_cache.h"
#include "src/mem/page_table.h"
#include "src/paging/data_path.h"
#include "src/paging/swap_manager.h"
#include "src/prefetch/budget_governor.h"
#include "src/prefetch/policy_registry.h"
#include "src/prefetch/prefetcher.h"
#include "src/prefetch/profile_pass.h"
#include "src/rdma/host_agent.h"
#include "src/rdma/remote_agent.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"
#include "src/storage/hdd.h"
#include "src/storage/ssd.h"
#include "src/tier/tier_config.h"
#include "src/tier/tier_migrator.h"
#include "src/tier/tiered_store.h"

namespace leap {

enum class Medium { kHdd, kSsd, kRemote };
enum class PathKind { kDefault, kLeap };
// PrefetchKind lives in src/prefetch/policy_registry.h (the shared policy
// registry); re-exported here because every MachineConfig names one.
enum class EvictionKind { kLazyLru, kEagerLeap };

// CPU cost of an access to a page that is already mapped.
inline constexpr SimTimeNs kLocalAccessNs = 90;

// One past the largest vpn a process may touch: 2^25 pages, 128 GiB of
// simulated address space per process, 512x the largest footprint any
// workload here uses. Each process's page records (PTE, swap slot and
// resident-LRU links; src/mem/page_table.h) are direct-indexed by vpn, so
// the bound is also what caps their size, and it keeps every vpn inside
// the records' u32 links.
inline constexpr Vpn kMaxVpn = Vpn{1} << 25;

struct MachineConfig {
  // Local DRAM, in 4KB frames.
  size_t total_frames = 64 * 1024;
  Medium medium = Medium::kRemote;
  PathKind path = PathKind::kDefault;
  PrefetchKind prefetcher = PrefetchKind::kReadAhead;
  EvictionKind eviction = EvictionKind::kLazyLru;
  LeapParams leap;
  // Inputs of the learned / profile-guided policies (used only when
  // `prefetcher` selects them; online_delta is an empty type).
  OnlineDeltaConfig online_delta;
  ProfileGuidedConfig profile_guided;

  // File-style access (disaggregated VFS): no page tables; every access is
  // a cache lookup; writes are write-allocate + writeback on eviction.
  bool vfs_mode = false;
  // Cache capacity in vfs_mode (0 = bounded only by DRAM).
  size_t vfs_cache_limit_pages = 0;

  // Cap on unconsumed prefetched pages in the cache (Figure 12); 0 = none.
  size_t prefetch_cache_limit_pages = 0;

  // Adaptive per-tenant prefetch budget governor (disabled by default:
  // candidate vectors pass through unclamped, bit-identical to the
  // governor-free machine).
  PrefetchBudgetConfig budget;

  // kswapd: period and per-wakeup scan batch.
  SimTimeNs kswapd_period_ns = 1 * kNsPerMs;
  size_t kswapd_scan_batch = 256;

  // Backing media.
  HostAgentConfig host_agent;
  size_t remote_nodes = 2;
  size_t node_capacity_slabs = 4096;

  // Tiered far memory (src/tier/): CXL-like fast tier + background
  // hot/cold migrator layered over the remote path. Only honored when
  // medium == kRemote; disabled (default) means no tier state exists and
  // the machine is bit-identical to a pre-tiering build.
  TierConfig tier;

  // Data-path cost presets (see runtime/presets.h for the calibrated ones).
  DefaultPathConfig default_path;
  LeapPathConfig leap_path;

  uint64_t seed = 42;
};

class SlabPlacer;

// Cluster wiring injected by the runtime/Cluster driver. All fields are
// optional: a default MachineEnv gives the classic self-contained machine
// (own event queue, own remote nodes, private NIC link).
struct MachineEnv {
  // Shared simulated clock: every machine in a cluster drains the same
  // queue, so background activity (kswapd and tier passes, failure events)
  // from all hosts interleaves deterministically with every host's faults.
  // A machine on a shared queue schedules no periodic events of its own:
  // the queue's owner calls KswapdTick and tier_migrator()->Tick for it.
  // Cluster keeps one event per shard per period that runs every home
  // host's pass, so the heap holds two tick events per shard instead of
  // two per host, and a warm-up that drains the queue once per host no
  // longer pays for every other host's idle ticks.
  EventQueue* shared_events = nullptr;
  // Shared donor pool (non-owning). Non-empty replaces the machine's own
  // private remote nodes.
  std::vector<RemoteAgent*> remote_pool;
  // Shared fabric: remote latency becomes a function of cluster traffic.
  PageTransport* fabric = nullptr;
  // Placement policy override (non-owning; default power-of-two-choices).
  SlabPlacer* placer = nullptr;
  // This machine's uplink id on the fabric.
  uint32_t host_id = 0;
  // Cluster-owned flight recorder (non-owning; null = tracing off). The
  // machine forwards it to its host agent and data path and records the
  // prefetch issue/hit/drop lifecycle itself.
  TraceRecorder* trace = nullptr;
  // Prefetch policy override (non-owning; `MachineConfig::prefetcher` is
  // then ignored). Lets conformance tests interpose an auditing wrapper
  // around a real policy and observe the exact feedback stream the machine
  // delivers.
  PrefetchPolicy* policy = nullptr;
};

enum class AccessType {
  kLocalHit,      // page already mapped
  kMinorFault,    // first touch, no backing store involved
  kCacheHit,      // fault served from the page cache
  kCacheWaitHit,  // fault hit an in-flight (prefetched) read
  kMiss,          // fault went to the backing store
};

struct AccessResult {
  AccessType type = AccessType::kLocalHit;
  SimTimeNs latency = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  Machine(const MachineConfig& config, const MachineEnv& env);

  // Registers a process with a cgroup limit (0 = unlimited).
  Pid CreateProcess(size_t cgroup_limit_pages);

  // Performs one memory access at absolute simulated time `now` and
  // returns its type and latency. `now` may step backwards by up to the
  // previous access's think time: the app runners step the app whose clock
  // is earliest and add the op's think time after the pick, so with several
  // processes on one machine an access can land before the previous one.
  // Background events only ever run forwards (DrainEvents ignores a `now`
  // behind the last drain). kswapd's TTL pass walks unconsumed prefetches
  // in insertion (inactive-list) order and stops at the first unexpired
  // one, so a prefetch inserted at an earlier `now` than its predecessor
  // waits behind that predecessor until it expires too.
  // Throws std::out_of_range for vpn >= kMaxVpn (before touching any
  // state) and for an unknown pid.
  AccessResult Access(Pid pid, Vpn vpn, bool write, SimTimeNs now);

  // --- Introspection -----------------------------------------------------
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  // Lazy-eviction wait: first hit -> freed (Figure 4).
  Histogram& eviction_wait_hist() { return eviction_wait_hist_; }
  // Prefetch timeliness: inserted -> first hit (Figure 10b).
  Histogram& timeliness_hist() { return timeliness_hist_; }
  // Page allocation cost distribution (eager-eviction effect).
  Histogram& alloc_hist() { return alloc_hist_; }
  const MachineConfig& config() const { return config_; }
  PrefetchPolicy& policy() { return *policy_; }
  // Budget governor (nullptr when config().budget.enabled is false).
  BudgetGovernor* governor() { return governor_.get(); }
  const BudgetGovernor* governor() const { return governor_.get(); }
  HostAgent* host_agent() { return host_agent_.get(); }
  // Tier-aware store (nullptr unless config().tier.enabled on a remote
  // medium); the cluster reads per-tier occupancy through this.
  TieredStore* tiered_store() { return tiered_store_.get(); }
  const TieredStore* tiered_store() const { return tiered_store_.get(); }
  size_t cache_size() const { return cache_.size(); }
  // Consumed lazy-mode entries awaiting kswapd (always 0 in eager mode).
  size_t stale_entries() const { return cache_.stale_count(); }
  size_t free_frames() const { return frames_.free_count(); }
  size_t resident_pages(Pid pid) const;
  bool IsResident(Pid pid, Vpn vpn) const;
  // The swap slot backing (pid, vpn); nullopt before its first swap-out,
  // after a re-dirty released it, and for an unknown pid.
  std::optional<SwapSlot> SlotOf(Pid pid, Vpn vpn) const;
  // Prefetched cache pages not yet hit (what FaultContext reports).
  size_t unconsumed_prefetched() const { return cache_.prefetch_count(); }
  // Fault-trace recording hook for the offline profile pass: when set,
  // every policy-visible paging event (cache miss and remote-path cache
  // hit) is appended to `sink` in access order. Observation-only - no
  // machine behavior changes. Pass nullptr to stop recording.
  void SetFaultTraceSink(FaultTrace* sink) { fault_sink_ = sink; }
  // Per-tenant footprint on the backing medium (remote slabs / swap).
  size_t swapped_pages(Pid pid) const { return swap_.SlotsOf(pid); }
  // This machine's uplink id when cluster-wired (0 standalone).
  uint32_t host_id() const { return host_id_; }
  // Null unless a tiered store runs with its migrator enabled.
  TierMigrator* tier_migrator() { return tier_migrator_.get(); }

  // One kswapd pass: retire stale entries, age out unused prefetches,
  // reclaim to the high watermark. A machine that owns its queue runs it
  // (and its migrator's Tick) every period; on a shared queue the owner
  // calls both (MachineEnv::shared_events).
  void KswapdTick(SimTimeNs now);

 private:
  struct ProcessState {
    PageTable table;  // page records: PTE, swap slot, resident LRU
    Cgroup cgroup;
  };

  void DrainEvents(SimTimeNs now);
  // Own-queue kswapd: runs KswapdTick at `at` and every period after.
  void ScheduleKswapd(SimTimeNs at);

  ProcessState& Proc(Pid pid) {
    auto* state = processes_.Find(pid);
    if (state == nullptr) {
      // Defined failure for unknown pids (the pre-flat-map behavior of
      // unordered_map::at); the branch is perfectly predicted on the
      // hot path.
      throw std::out_of_range("leap::Machine: unknown pid");
    }
    return **state;
  }

  // Allocates a frame, reclaiming if necessary; returns the CPU cost and
  // sets `*pfn`. Reclaim preference: unconsumed cache victims, then the
  // coldest mapped page of the largest process.
  SimTimeNs AllocateFrame(SimTimeNs now, Pfn* pfn);

  // Evicts the coldest mapped page of `pid` (cgroup reclaim). Returns CPU
  // cost; no-op (0) when the process has no resident pages.
  SimTimeNs EvictColdestOf(Pid pid, SimTimeNs now);

  // Evicts one frame-holding cache entry per the eviction policy. Returns
  // true when an entry was freed.
  bool ReclaimOneCacheVictim(SimTimeNs now);

  // The one path by which a cache entry leaves the cache, eager
  // consumption aside. Returns the removed entry (nullopt when `slot` is
  // not cached) so the caller can count the removal its own way.
  std::optional<CacheEntry> DropCacheEntry(SwapSlot slot, SimTimeNs now);

  // Removes the cache entry for `slot` and hands its frame to (pid, vpn).
  // Handles eager-vs-lazy lifecycle, prefetch-hit accounting, and window
  // feedback.
  void ConsumeCacheEntry(SwapSlot slot, Pid pid, Vpn vpn, bool write,
                         SimTimeNs now);

  // Snapshot of machine + cluster state for one fault: clock, free-frame
  // pressure, in-flight prefetch count, congestion signals, and the
  // governor's per-tenant budget (advancing its AIMD epoch).
  FaultContext MakeFaultContext(Pid pid, SwapSlot slot, SimTimeNs now);

  // The one candidate pipeline for both the paging and VFS miss paths:
  // policy OnFault, then filtering, then the governor's budget clamp.
  CandidateVec GeneratePrefetches(const FaultContext& ctx);

  // Outcome-feedback fan-out to the policy and the governor.
  // A prefetch read was submitted and its cache entry inserted; `ready_at`
  // is its completion time (Complete fires immediately - the simulation
  // knows the latency at issue).
  void NotifyPrefetchIssued(Pid pid, SwapSlot slot, SimTimeNs ready_at,
                            SimTimeNs now);
  // First hit on a prefetched entry (records timeliness, credits policy
  // window sizing and governor accuracy).
  void NotifyPrefetchHit(Pid pid, SwapSlot slot, const CacheEntry& entry,
                         SimTimeNs now);
  // Funnel for every path that removes a prefetched-never-hit entry, so
  // kPrefetchUnused, the policy and the governor see each unconsumed
  // prefetch exactly once.
  void NotifyPrefetchDropped(SwapSlot slot, const CacheEntry& entry);

  // Maps (pid, vpn) -> pfn, charging the cgroup and enforcing its limit.
  // Returns the CPU cost of any synchronous cgroup reclaim triggered.
  SimTimeNs MapPage(Pid pid, Vpn vpn, Pfn pfn, bool write, SimTimeNs now);

  // One miss's reads: the demand page and its prefetch candidates,
  // submitted as a single batch.
  struct MissIo {
    CandidateVec prefetches;
    // Completion time per batch entry: [0] is the demand page, [i + 1]
    // is prefetches[i].
    InlineVec<SimTimeNs, kMaxPrefetchCandidates + 1> ready{};
    SimTimeNs demand_ready = 0;
    Pfn demand_pfn = kInvalidPfn;
  };

  // The miss submission shared by the paging and VFS paths: candidates,
  // the prefetch-cache cap, the demand frame, one ReadPages batch and the
  // read counters. Each path then inserts its own demand entry and calls
  // InsertPrefetchEntries, in its own order (that order is the cache's
  // LRU order).
  MissIo IssueMiss(Pid pid, SwapSlot demand_slot, SimTimeNs now);

  // Filters in place and returns by value: CandidateVec is fixed-capacity
  // inline storage, so the whole candidate pipeline is allocation-free.
  CandidateVec FilterPrefetchCandidates(const CandidateVec& candidates,
                                        SwapSlot demand_slot) const;
  // Inserts an in-flight cache entry for each of the miss's prefetches
  // that gets a frame.
  void InsertPrefetchEntries(Pid pid, const MissIo& miss, SimTimeNs now);
  void UnchargeCacheEntry(const CacheEntry& entry);

  // swap_free on re-dirty: releases the page's swap slot and drops cache
  // state keyed by it.
  void OnPageDirtied(Pid pid, Vpn vpn, SimTimeNs now);

  // Enforces the prefetch-cache cap before inserting `incoming` pages.
  void EnforcePrefetchCacheLimit(size_t incoming, SimTimeNs now);

  AccessResult VfsAccess(Pid pid, Vpn vpn, bool write, SimTimeNs now);

  MachineConfig config_;
  Rng rng_;
  // Clock: own queue standalone; a cluster injects a shared one so every
  // host's background events interleave on one timeline.
  EventQueue owned_events_;
  EventQueue* events_;
  SimTimeNs last_event_drain_ = 0;
  uint32_t host_id_ = 0;
  TraceRecorder* trace_ = nullptr;  // null unless the cluster enabled it

  FramePool frames_;
  // Swap cache, with its LRU, the unconsumed-prefetch FIFO (eager victims,
  // kswapd's TTL walk) and the lazy stale list (kswapd's retire queue)
  // threaded through its entries. The stale list is empty in eager mode
  // and in VFS mode.
  PageCache cache_;
  SwapManager swap_;

  std::vector<std::unique_ptr<RemoteAgent>> remote_nodes_;  // owned donors
  std::unique_ptr<HostAgent> host_agent_;
  std::unique_ptr<BackingStore> local_store_;  // hdd/ssd when not remote
  // Degradation target when the donor pool is out of slabs (remote runs).
  std::unique_ptr<BackingStore> overflow_store_;
  // Tiered hierarchy over {cxl, host_agent_, overflow ssd}; null unless
  // config_.tier.enabled (the null pointer IS the off switch).
  std::unique_ptr<TieredStore> tiered_store_;
  std::unique_ptr<TierMigrator> tier_migrator_;
  BackingStore* store_ = nullptr;
  std::unique_ptr<DataPath> data_path_;
  // Policy: own one from the registry unless the env injected one.
  std::unique_ptr<PrefetchPolicy> owned_policy_;
  PrefetchPolicy* policy_;
  std::unique_ptr<BudgetGovernor> governor_;  // null when disabled
  // Profile-pass recording sink (null = off; see SetFaultTraceSink).
  FaultTrace* fault_sink_ = nullptr;

  // unique_ptr values keep ProcessState addresses stable across map growth
  // (Proc() references are held across container mutations).
  FlatMap<Pid, std::unique_ptr<ProcessState>> processes_;
  Pid next_pid_ = 1;
  // High-water mark of file pages seen in VFS mode (the simulated isize).
  SwapSlot vfs_file_pages_ = 0;

  Counters counters_;
  Histogram eviction_wait_hist_;
  Histogram timeliness_hist_;
  Histogram alloc_hist_;
};

}  // namespace leap

#endif  // LEAP_SRC_RUNTIME_MACHINE_H_
