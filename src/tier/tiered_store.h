// Tier-aware backing store: routes every page op to the tier the page
// currently lives on and tracks per-page residency + per-tier recency/heat.
//
// The store wraps the ordered hierarchy below DRAM (tier_config.h):
//
//   kTierCxl    - owned CxlStore, capacity-bounded (cxl_capacity_pages)
//   kTierRemote - the host's fabric path (HostAgent), non-owning
//   kTierSsd    - the host's local flash, non-owning
//
// Placement policy: a NEW swap slot is written to the highest tier with
// free capacity (CXL first, spilling to remote when full - counted as
// tier_spills); a rewrite of a known slot stays in place, preserving
// read-your-writes on whatever tier holds the page. Reads are routed by
// residency and never move a page - promotion/demotion is exclusively the
// TierMigrator's job, so the foreground path stays mechanical and the
// migration traffic is the only cross-tier bandwidth consumer.
//
// Per-slot state is one 12-byte record in a slot-indexed table
// (src/container/dense_index.h): the links of its tier's recency list, a
// saturating heat count and the tier byte (kTierCount for a slot this
// store has never seen). The three tier lists are threaded through those
// records (src/container/index_list.h), front = most recently touched, so
// the tier lookup on every page op and a list move are loads and stores
// in one record. A slot lives on exactly one list at a time, so one set
// of links serves all three. Slots index the table with u32 links, so a
// read or write that would add a slot at or above kNilIndex throws
// std::out_of_range and records nothing for it; a slot past the table's
// end reads as unknown.
//
// Hot/cold signal: the heat count is seeded at 1 when a slot arrives on a
// tier, bumped per touch (saturating at 0xFFFF) and halved by
// DecayCounts; the migrator reads it as promotion heat. Heat restarts
// when a page changes tier: it is a per-residency-epoch signal, which is
// exactly the hysteresis that keeps a just-demoted page from bouncing
// straight back up.
#ifndef LEAP_SRC_TIER_TIERED_STORE_H_
#define LEAP_SRC_TIER_TIERED_STORE_H_

#include <array>
#include <vector>

#include "src/container/index_list.h"
#include "src/obs/trace_recorder.h"
#include "src/stats/counters.h"
#include "src/storage/backing_store.h"
#include "src/tier/cxl_store.h"
#include "src/tier/tier_config.h"

namespace leap {

class TieredStore : public BackingStore {
 public:
  // `remote` and `ssd` are non-owning and must outlive the store.
  TieredStore(const TierConfig& config, BackingStore* remote,
              BackingStore* ssd);

  // --- BackingStore ------------------------------------------------------
  void ReadPages(std::span<const IoRequest> reqs, SimTimeNs now, Rng& rng,
                 std::span<SimTimeNs> ready_at) override;
  SimTimeNs WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) override;
  std::string name() const override { return "tiered"; }
  // Reporting latency is the remote tier's: at steady state the bulk of
  // the footprint lives there, and the fast tier is the part the migrator
  // is trying to make not matter.
  double MeanReadLatencyNs() const override {
    return remote_->MeanReadLatencyNs();
  }

  void SetCounters(Counters* counters) { counters_ = counters; }
  void SetTrace(TraceRecorder* trace, uint32_t host_id) {
    trace_ = trace;
    host_id_ = host_id;
  }

  // --- migrator interface ------------------------------------------------
  size_t TierPages(size_t tier) const { return lists_[tier].size(); }
  size_t FastCapacityPages() const { return config_.cxl_capacity_pages; }
  // Tier currently holding `slot`; kTierCount when the slot is unknown.
  size_t TierOf(SwapSlot slot) const {
    return slot < slots_.size() ? slots_[slot].tier : kTierCount;
  }
  // Heat of `slot` on `tier`: 1 on arrival, +1 per touch (saturating at
  // kHeatMax), halved by DecayCounts; 0 when the slot is not on `tier`.
  uint32_t AccessCount(size_t tier, SwapSlot slot) const {
    return TierOf(slot) == tier ? slots_[slot].heat : 0;
  }
  // Replace `out` with up to n slots of `tier`, most recently touched
  // first (HottestOf) or least recently touched first (ColdestOf). The
  // caller owns `out`, so a reused buffer keeps the migrator's periodic
  // scans allocation-free.
  void HottestOf(size_t tier, size_t n, std::vector<SwapSlot>& out) const;
  void ColdestOf(size_t tier, size_t n, std::vector<SwapSlot>& out) const;
  // Halves every heat count on every tier (the migrator's aging step);
  // list order is untouched.
  void DecayCounts();
  // Mutation epoch: bumped by ReadPages, WritePage, DecayCounts and every
  // MigrateSlot that moves a page - each call that can change residency,
  // recency or heat. Equal epochs mean the migrator's plan inputs are
  // unchanged.
  uint64_t epoch() const { return epoch_; }

  // Copies `slot` from tier `from` to tier `to` as IoClass::kMigration
  // traffic (device + fabric occupancy modeled on both ends; remote legs
  // ride the per-link migration bandwidth cap), then flips residency.
  // Returns false - and moves nothing - when the slot is not on `from` or
  // the destination fast tier is full.
  bool MigrateSlot(SwapSlot slot, size_t from, size_t to, SimTimeNs now,
                   Rng& rng);

  const TierConfig& config() const { return config_; }

 private:
  static constexpr uint16_t kHeatMax = 0xFFFF;

  struct SlotRecord {
    ListLinks links;  // neighbours on the list of `tier`
    uint16_t heat = 0;
    uint8_t tier = static_cast<uint8_t>(kTierCount);  // kTierCount: unknown
  };
  static_assert(sizeof(SlotRecord) == 12);
  using TierList = IndexList<SlotRecord, &SlotRecord::links>;

  // Links a slot this store has never seen onto `tier` (heat 1); throws
  // std::out_of_range for a slot the u32 links cannot index.
  void Adopt(SwapSlot slot, size_t tier);
  // Refreshes a known slot as its tier's most recent, bumping its heat.
  void Touch(SwapSlot slot);

  TierConfig config_;
  CxlStore cxl_;
  BackingStore* remote_;
  BackingStore* ssd_;
  std::array<BackingStore*, kTierCount> tiers_;
  std::vector<SlotRecord> slots_;  // [slot]
  std::array<TierList, kTierCount> lists_;
  uint64_t epoch_ = 0;
  Counters* counters_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  uint32_t host_id_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_TIER_TIERED_STORE_H_
