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
// Hot/cold signal: each tier keeps an LruList<SwapSlot> whose saturating
// access counts (bumped per touch, halved by DecayCounts) double as the
// promotion heat. Counts restart when a page changes tier: heat is a
// per-residency-epoch signal, which is exactly the hysteresis that keeps
// a just-demoted page from bouncing straight back up.
//
// Residency is a direct-indexed byte per swap slot (src/container/
// dense_index.h): slots are dense, and the tier lookup sits on every page
// op. kTierCount marks a slot this store has never seen.
#ifndef LEAP_SRC_TIER_TIERED_STORE_H_
#define LEAP_SRC_TIER_TIERED_STORE_H_

#include <array>
#include <vector>

#include "src/container/dense_index.h"
#include "src/mem/lru_list.h"
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
  size_t TierPages(size_t tier) const { return lru_[tier].size(); }
  size_t FastCapacityPages() const { return config_.cxl_capacity_pages; }
  // Tier currently holding `slot`; kTierCount when the slot is unknown.
  size_t TierOf(SwapSlot slot) const {
    return ReadOr(residency_, slot, kNoTier);
  }
  uint32_t AccessCount(size_t tier, SwapSlot slot) const {
    return lru_[tier].AccessCount(slot);
  }
  void HottestOf(size_t tier, size_t n, std::vector<SwapSlot>& out) const {
    lru_[tier].HottestN(n, out);
  }
  void ColdestOf(size_t tier, size_t n, std::vector<SwapSlot>& out) const {
    lru_[tier].ColdestN(n, out);
  }
  // Halves every access count on every tier (the migrator's aging step).
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
  static constexpr uint8_t kNoTier = static_cast<uint8_t>(kTierCount);

  size_t PlaceNewSlot(SwapSlot slot);

  TierConfig config_;
  CxlStore cxl_;
  BackingStore* remote_;
  BackingStore* ssd_;
  std::array<BackingStore*, kTierCount> tiers_;
  std::vector<uint8_t> residency_;  // slot -> tier, kTierCount if unknown
  std::array<LruList<SwapSlot>, kTierCount> lru_;
  uint64_t epoch_ = 0;
  Counters* counters_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  uint32_t host_id_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_TIER_TIERED_STORE_H_
