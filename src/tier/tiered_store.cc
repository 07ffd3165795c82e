#include "src/tier/tiered_store.h"

#include <stdexcept>

#include "src/container/dense_index.h"

namespace leap {

TieredStore::TieredStore(const TierConfig& config, BackingStore* remote,
                         BackingStore* ssd)
    : config_(config),
      remote_(remote),
      ssd_(ssd),
      tiers_{&cxl_, remote, ssd} {}

void TieredStore::Adopt(SwapSlot slot, size_t tier) {
  if (slot >= kNilIndex) {
    throw std::out_of_range("leap::TieredStore: swap slot >= kNilIndex");
  }
  SlotRecord& record = GrowToFit(slots_, slot, SlotRecord{});
  record.tier = static_cast<uint8_t>(tier);
  record.heat = 1;
  lists_[tier].PushFront(slots_, static_cast<uint32_t>(slot));
}

void TieredStore::Touch(SwapSlot slot) {
  SlotRecord& record = slots_[slot];
  if (record.heat < kHeatMax) {
    ++record.heat;
  }
  lists_[record.tier].Touch(slots_, static_cast<uint32_t>(slot));
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
      Adopt(req.slot, tier);
    } else {
      Touch(req.slot);
    }
    tiers_[tier]->ReadPages(std::span<const IoRequest>(&req, 1), now, rng,
                            std::span<SimTimeNs>(&ready_at[i], 1));
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
    // A new slot lands on the fastest tier with room.
    const bool spill =
        lists_[kTierCxl].size() >= config_.cxl_capacity_pages;
    tier = spill ? kTierRemote : kTierCxl;
    Adopt(req.slot, tier);
    if (spill && counters_ != nullptr) {
      counters_->Add(counter::kTierSpills);
    }
  } else {
    // Known slots rewrite in place: the page's current tier holds the
    // only authoritative copy, so read-your-writes needs no cross-tier
    // fence.
    Touch(req.slot);
  }
  return tiers_[tier]->WritePage(req, now, rng);
}

void TieredStore::HottestOf(size_t tier, size_t n,
                            std::vector<SwapSlot>& out) const {
  out.clear();
  for (uint32_t idx = lists_[tier].Hottest();
       idx != kNilIndex && out.size() < n; idx = slots_[idx].links.next) {
    out.push_back(idx);
  }
}

void TieredStore::ColdestOf(size_t tier, size_t n,
                            std::vector<SwapSlot>& out) const {
  out.clear();
  for (uint32_t idx = lists_[tier].Coldest();
       idx != kNilIndex && out.size() < n; idx = slots_[idx].links.prev) {
    out.push_back(idx);
  }
}

void TieredStore::DecayCounts() {
  ++epoch_;
  // A slot the store has never seen has heat 0, so the whole table halves.
  for (SlotRecord& record : slots_) {
    record.heat >>= 1;
  }
}

bool TieredStore::MigrateSlot(SwapSlot slot, size_t from, size_t to,
                              SimTimeNs now, Rng& rng) {
  if (from >= kTierCount || TierOf(slot) != from || from == to) {
    return false;
  }
  if (to == kTierCxl &&
      lists_[kTierCxl].size() >= config_.cxl_capacity_pages) {
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
  // Heat restarts on the new tier (per-residency-epoch signal; see
  // header): the page arrives as the tier's most recent, at heat 1.
  const auto idx = static_cast<uint32_t>(slot);
  lists_[from].Remove(slots_, idx);
  slots_[slot].tier = static_cast<uint8_t>(to);
  slots_[slot].heat = 1;
  lists_[to].PushFront(slots_, idx);
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
