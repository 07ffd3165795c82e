// Named monotonic counters for data-path and prefetcher accounting.
//
// The counter names mirror the quantities the paper's evaluation reports:
// cache adds, cache hits/misses, prefetched-page hits (coverage), etc.
//
// Counters are identified by a dense enum and stored in a flat array: a
// bump on the access path is one indexed add, with no string hashing, no
// map lookup, and no allocation (the old string-keyed std::map allocated a
// node per counter and a std::string per bump for long names). Names only
// materialize in the cold reporting path (Name / values()).
#ifndef LEAP_SRC_STATS_COUNTERS_H_
#define LEAP_SRC_STATS_COUNTERS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace leap {

enum class CounterId : uint8_t {
  kPageFaults,
  kCacheHits,
  kCacheMisses,
  kPrefetchHits,
  kPrefetchWaitHits,
  kCacheAdds,
  kPrefetchIssued,
  kPrefetchUnused,
  kDemandReads,
  kWritebacks,
  kEvictions,
  kEagerFrees,
  kLruScans,
  kRemoteReads,
  kRemoteWrites,
  // Cluster / remote-pool events (PR 2).
  kRemoteCapacityExhausted,  // slab found no free node anywhere: degraded
  kOverflowReads,            // reads served by the overflow medium
  kOverflowWrites,           // writes absorbed by the overflow medium
  kRemoteFailovers,          // reads redirected to a replica (primary down)
  kRemoteReadsLost,          // reads with every replica down (penalty path)
  kRemoteWritesLost,         // writes with every replica down
  kSlabRepairs,              // slabs re-mapped after a node failure
  kRepairPageCopies,         // pages re-replicated during repair
  kNodeFailures,             // memory-node failure events (scenario hook)
  kNodeRecoveries,           // memory-node recovery events
  kHostJoins,                // hosts added to the cluster
  kHostLeaves,               // hosts removed from the cluster
  // Gray-failure mitigation (PR 6).
  kReadRetries,              // demand reads re-issued after a deadline miss
  kReadDeadlineMisses,       // demand reads whose attempt blew its deadline
  kHedgedReads,              // speculative second reads issued (tail hedge)
  kHedgeWins,                // hedges that beat the original read
  kReadsRerouted,            // reads steered off a gray-suspect primary
  kGrayTransitions,          // health-monitor state changes (any direction)
  kGrayFaultEvents,          // injected gray/slowdown fault events
  kDelaySpikeEvents,         // injected packet-delay spike events
  // Tiered far memory (src/tier/).
  kTierPromotions,           // pages migrated up a tier (hot)
  kTierDemotions,            // pages migrated down a tier (cold)
  kTierSpills,               // writes placed below the preferred tier (full)
  kTierFastHits,             // demand reads served by the fastest tier
  kTierSlowHits,             // demand reads served by any lower tier
  // Sharded cluster engine (src/runtime/cluster.h, shards > 1).
  kCrossShardSent,           // cross-shard page ops appended to an outbox
  kCrossShardApplied,        // cross-shard page ops applied at their target
  kCount,
};

inline constexpr size_t kCounterCount = static_cast<size_t>(CounterId::kCount);

// Reporting name of a counter (stable across versions; the evaluation
// scripts and EXPERIMENTS.md key off these strings).
constexpr const char* CounterName(CounterId id) {
  switch (id) {
    case CounterId::kPageFaults: return "page_faults";
    case CounterId::kCacheHits: return "cache_hits";
    case CounterId::kCacheMisses: return "cache_misses";
    case CounterId::kPrefetchHits: return "prefetch_hits";
    case CounterId::kPrefetchWaitHits: return "prefetch_wait_hits";
    case CounterId::kCacheAdds: return "cache_adds";
    case CounterId::kPrefetchIssued: return "prefetch_issued";
    case CounterId::kPrefetchUnused: return "prefetch_unused_evicted";
    case CounterId::kDemandReads: return "demand_reads";
    case CounterId::kWritebacks: return "writebacks";
    case CounterId::kEvictions: return "evictions";
    case CounterId::kEagerFrees: return "eager_frees";
    case CounterId::kLruScans: return "lru_pages_scanned";
    case CounterId::kRemoteReads: return "remote_reads";
    case CounterId::kRemoteWrites: return "remote_writes";
    case CounterId::kRemoteCapacityExhausted:
      return "remote_capacity_exhausted";
    case CounterId::kOverflowReads: return "overflow_reads";
    case CounterId::kOverflowWrites: return "overflow_writes";
    case CounterId::kRemoteFailovers: return "remote_read_failovers";
    case CounterId::kRemoteReadsLost: return "remote_reads_lost";
    case CounterId::kRemoteWritesLost: return "remote_writes_lost";
    case CounterId::kSlabRepairs: return "slab_repairs";
    case CounterId::kRepairPageCopies: return "repair_page_copies";
    case CounterId::kNodeFailures: return "node_failures";
    case CounterId::kNodeRecoveries: return "node_recoveries";
    case CounterId::kHostJoins: return "host_joins";
    case CounterId::kHostLeaves: return "host_leaves";
    case CounterId::kReadRetries: return "remote_read_retries";
    case CounterId::kReadDeadlineMisses: return "read_deadline_misses";
    case CounterId::kHedgedReads: return "hedged_reads";
    case CounterId::kHedgeWins: return "hedge_wins";
    case CounterId::kReadsRerouted: return "reads_rerouted_gray";
    case CounterId::kGrayTransitions: return "gray_suspect_transitions";
    case CounterId::kGrayFaultEvents: return "gray_fault_events";
    case CounterId::kDelaySpikeEvents: return "delay_spike_events";
    case CounterId::kTierPromotions: return "tier_promotions";
    case CounterId::kTierDemotions: return "tier_demotions";
    case CounterId::kTierSpills: return "tier_spills";
    case CounterId::kTierFastHits: return "tier_fast_demand_reads";
    case CounterId::kTierSlowHits: return "tier_slow_demand_reads";
    case CounterId::kCrossShardSent: return "cross_shard_ops_sent";
    case CounterId::kCrossShardApplied: return "cross_shard_ops_applied";
    case CounterId::kCount: break;
  }
  return "unknown";
}

class Counters {
 public:
  void Add(CounterId id, uint64_t delta = 1) {
    values_[static_cast<size_t>(id)] += delta;
  }

  uint64_t Get(CounterId id) const {
    return values_[static_cast<size_t>(id)];
  }

  // Ratio helper; returns 0 when the denominator counter is 0.
  double Ratio(CounterId num, CounterId den) const {
    const uint64_t d = Get(den);
    return d == 0 ? 0.0
                  : static_cast<double>(Get(num)) / static_cast<double>(d);
  }

  // Cold reporting view: name -> value for every counter that has fired.
  std::map<std::string, uint64_t> values() const {
    std::map<std::string, uint64_t> out;
    for (size_t i = 0; i < kCounterCount; ++i) {
      if (values_[i] != 0) {
        out.emplace(CounterName(static_cast<CounterId>(i)), values_[i]);
      }
    }
    return out;
  }

  // Element-wise accumulation of another snapshot. Commutative and
  // associative (plain uint64 adds), which is the contract the future
  // sharded engine's merge-on-barrier stats rely on - pinned by
  // stats_merge_test.
  void Merge(const Counters& other) {
    for (size_t i = 0; i < kCounterCount; ++i) {
      values_[i] += other.values_[i];
    }
  }

  void Reset() { values_.fill(0); }

 private:
  std::array<uint64_t, kCounterCount> values_{};
};

// Canonical counter ids used across the paging pipeline (kept as the
// historical `counter::kFoo` spellings used throughout the codebase).
namespace counter {
inline constexpr CounterId kPageFaults = CounterId::kPageFaults;
inline constexpr CounterId kCacheHits = CounterId::kCacheHits;
inline constexpr CounterId kCacheMisses = CounterId::kCacheMisses;
inline constexpr CounterId kPrefetchHits = CounterId::kPrefetchHits;
inline constexpr CounterId kPrefetchWaitHits = CounterId::kPrefetchWaitHits;
inline constexpr CounterId kCacheAdds = CounterId::kCacheAdds;
inline constexpr CounterId kPrefetchIssued = CounterId::kPrefetchIssued;
inline constexpr CounterId kPrefetchUnused = CounterId::kPrefetchUnused;
inline constexpr CounterId kDemandReads = CounterId::kDemandReads;
inline constexpr CounterId kWritebacks = CounterId::kWritebacks;
inline constexpr CounterId kEvictions = CounterId::kEvictions;
inline constexpr CounterId kEagerFrees = CounterId::kEagerFrees;
inline constexpr CounterId kLruScans = CounterId::kLruScans;
inline constexpr CounterId kRemoteReads = CounterId::kRemoteReads;
inline constexpr CounterId kRemoteWrites = CounterId::kRemoteWrites;
inline constexpr CounterId kRemoteCapacityExhausted =
    CounterId::kRemoteCapacityExhausted;
inline constexpr CounterId kOverflowReads = CounterId::kOverflowReads;
inline constexpr CounterId kOverflowWrites = CounterId::kOverflowWrites;
inline constexpr CounterId kRemoteFailovers = CounterId::kRemoteFailovers;
inline constexpr CounterId kRemoteReadsLost = CounterId::kRemoteReadsLost;
inline constexpr CounterId kRemoteWritesLost = CounterId::kRemoteWritesLost;
inline constexpr CounterId kSlabRepairs = CounterId::kSlabRepairs;
inline constexpr CounterId kRepairPageCopies = CounterId::kRepairPageCopies;
inline constexpr CounterId kNodeFailures = CounterId::kNodeFailures;
inline constexpr CounterId kNodeRecoveries = CounterId::kNodeRecoveries;
inline constexpr CounterId kHostJoins = CounterId::kHostJoins;
inline constexpr CounterId kHostLeaves = CounterId::kHostLeaves;
inline constexpr CounterId kReadRetries = CounterId::kReadRetries;
inline constexpr CounterId kReadDeadlineMisses =
    CounterId::kReadDeadlineMisses;
inline constexpr CounterId kHedgedReads = CounterId::kHedgedReads;
inline constexpr CounterId kHedgeWins = CounterId::kHedgeWins;
inline constexpr CounterId kReadsRerouted = CounterId::kReadsRerouted;
inline constexpr CounterId kGrayTransitions = CounterId::kGrayTransitions;
inline constexpr CounterId kGrayFaultEvents = CounterId::kGrayFaultEvents;
inline constexpr CounterId kDelaySpikeEvents = CounterId::kDelaySpikeEvents;
inline constexpr CounterId kTierPromotions = CounterId::kTierPromotions;
inline constexpr CounterId kTierDemotions = CounterId::kTierDemotions;
inline constexpr CounterId kTierSpills = CounterId::kTierSpills;
inline constexpr CounterId kTierFastHits = CounterId::kTierFastHits;
inline constexpr CounterId kTierSlowHits = CounterId::kTierSlowHits;
inline constexpr CounterId kCrossShardSent = CounterId::kCrossShardSent;
inline constexpr CounterId kCrossShardApplied = CounterId::kCrossShardApplied;
}  // namespace counter

}  // namespace leap

#endif  // LEAP_SRC_STATS_COUNTERS_H_
