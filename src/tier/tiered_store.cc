#include "src/tier/tiered_store.h"

namespace leap {

TieredStore::TieredStore(const TierConfig& config, BackingStore* remote,
                         BackingStore* ssd)
    : config_(config),
      remote_(remote),
      ssd_(ssd),
      tiers_{&cxl_, remote, ssd} {}

size_t TieredStore::PlaceNewSlot(SwapSlot slot) {
  size_t dest = kTierCxl;
  if (lru_[kTierCxl].size() >= config_.cxl_capacity_pages) {
    dest = kTierRemote;
    if (counters_ != nullptr) {
      counters_->Add(counter::kTierSpills);
    }
  }
  GrowToFit(residency_, slot, kNoTier) = static_cast<uint8_t>(dest);
  return dest;
}

void TieredStore::ReadPages(std::span<const IoRequest> reqs, SimTimeNs now,
                            Rng& rng, std::span<SimTimeNs> ready_at) {
  ++epoch_;
  // Per-request dispatch: each sub-store's batch path is a per-request
  // loop, so splitting a mixed-tier batch preserves each device's queueing
  // behavior while letting every page read from its own tier.
  for (size_t i = 0; i < reqs.size(); ++i) {
    const IoRequest& req = reqs[i];
    size_t tier = TierOf(req.slot);
    if (tier == kTierCount) {
      // A read for a slot never written through this store (defensive:
      // swap-outs precede swap-ins on every path here). Adopt it on the
      // remote tier, where an untracked slot would have lived.
      tier = kTierRemote;
      GrowToFit(residency_, req.slot, kNoTier) = static_cast<uint8_t>(tier);
    }
    tiers_[tier]->ReadPages(std::span<const IoRequest>(&req, 1), now, rng,
                            std::span<SimTimeNs>(&ready_at[i], 1));
    lru_[tier].Touch(req.slot);
    if (counters_ != nullptr && req.cls == IoClass::kDemandRead) {
      counters_->Add(tier == kTierCxl ? counter::kTierFastHits
                                      : counter::kTierSlowHits);
    }
  }
}

SimTimeNs TieredStore::WritePage(const IoRequest& req, SimTimeNs now,
                                 Rng& rng) {
  ++epoch_;
  size_t tier = TierOf(req.slot);
  if (tier == kTierCount) {
    tier = PlaceNewSlot(req.slot);
  }
  // Known slots rewrite in place: the page's current tier holds the only
  // authoritative copy, so read-your-writes needs no cross-tier fence.
  lru_[tier].Touch(req.slot);
  return tiers_[tier]->WritePage(req, now, rng);
}

void TieredStore::DecayCounts() {
  ++epoch_;
  for (auto& lru : lru_) {
    lru.DecayCounts();
  }
}

bool TieredStore::MigrateSlot(SwapSlot slot, size_t from, size_t to,
                              SimTimeNs now, Rng& rng) {
  if (from >= kTierCount || TierOf(slot) != from || from == to) {
    return false;
  }
  if (to == kTierCxl && lru_[kTierCxl].size() >= config_.cxl_capacity_pages) {
    return false;
  }
  // One read off the source tier, one write onto the destination, both
  // tagged kMigration: the copy occupies real device/fabric time, and the
  // remote legs are paced by the per-link migration bandwidth cap.
  const IoRequest copy = MigrationCopy(slot, now);
  SimTimeNs read_done = now;
  tiers_[from]->ReadPages(std::span<const IoRequest>(&copy, 1), now, rng,
                          std::span<SimTimeNs>(&read_done, 1));
  tiers_[to]->WritePage(copy, read_done, rng);
  ++epoch_;
  residency_[slot] = static_cast<uint8_t>(to);
  lru_[from].Remove(slot);
  // Heat restarts on the new tier (per-residency-epoch signal; see
  // header) - Touch seeds the count at 1.
  lru_[to].Touch(slot);
  const bool promotion = to < from;
  if (counters_ != nullptr) {
    counters_->Add(promotion ? counter::kTierPromotions
                             : counter::kTierDemotions);
  }
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = promotion ? TraceEventKind::kTierPromote
                       : TraceEventKind::kTierDemote;
    e.ts = now;
    e.slot = slot;
    e.host = host_id_;
    e.cls = IoClass::kMigration;
    e.a = static_cast<uint8_t>(from);
    e.b = static_cast<uint8_t>(to);
    trace_->Record(e);
  }
  return true;
}

}  // namespace leap
