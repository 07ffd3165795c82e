#include "src/tier/tier_migrator.h"

#include <algorithm>

namespace leap {

TierMigrator::TierMigrator(const TierConfig& config, EventQueue* events,
                           TieredStore* store, uint64_t seed)
    : config_(config), events_(events), store_(store), rng_(seed) {}

void TierMigrator::Start(SimTimeNs at) {
  events_->ScheduleAt(at, [this](SimTimeNs when) {
    Tick(when);
    Start(when + kTierMigratePeriodNs);
  });
}

void TierMigrator::Tick(SimTimeNs now) {
  ++ticks_;
  if (config_.decay_every_ticks != 0 &&
      ticks_ % config_.decay_every_ticks == 0) {
    store_->DecayCounts();
  }
  if (store_->epoch() == idle_epoch_) {
    return;  // nothing the plan reads has changed since an empty plan
  }

  const size_t cap = store_->FastCapacityPages();
  const auto high =
      static_cast<size_t>(config_.demote_high_watermark *
                          static_cast<double>(cap));
  const auto low = static_cast<size_t>(config_.demote_low_watermark *
                                       static_cast<double>(cap));

  // Planning phase: decide every move against a simulated occupancy
  // (`planned_cxl`), execute nothing yet. The copies are staggered across
  // the tick period below, so the plan must not depend on its own
  // side effects being visible in the store.
  std::vector<Move>& moves = moves_;
  moves.clear();
  size_t planned_cxl = store_->TierPages(kTierCxl);

  // Demotion candidates: the fast tier's recency tail, but only pages
  // whose heat sits below the promotion bar. A page as hot as the pages
  // we would promote is never a victim - demoting it just to re-promote
  // it is the ping-pong this loop exists to avoid.
  std::vector<SwapSlot>& victims = victims_;
  victims.clear();
  store_->ColdestOf(kTierCxl, config_.migrate_batch, scan_);
  for (const SwapSlot slot : scan_) {
    if (store_->AccessCount(kTierCxl, slot) < config_.promote_threshold) {
      victims.push_back(slot);
    }
  }
  size_t next_victim = 0;

  // Watermark demote: first-touch placement fills the fast tier to 100%;
  // drain the overshoot down to the low watermark so promotions have
  // standing room (demote before promote, so this tick's promotions land
  // instead of bouncing off a full tier).
  if (planned_cxl > high) {
    while (planned_cxl > low && next_victim < victims.size()) {
      moves.push_back({victims[next_victim++], kTierCxl, kTierRemote});
      --planned_cxl;
    }
  }

  // Promote by exchange: each remote page past the heat bar either takes
  // free fast-tier room or displaces one provably-cold victim; when the
  // cold candidates run out the tier is full of hot pages and migration
  // stops - churn is bounded by the supply of genuinely cold pages, not
  // by the batch size. The scan walks the remote tier's recency end; LRU
  // order is not heat order, so a cool recently-touched page is skipped,
  // not a scan stop.
  store_->HottestOf(kTierRemote, config_.migrate_batch, scan_);
  for (const SwapSlot slot : scan_) {
    if (store_->AccessCount(kTierRemote, slot) < config_.promote_threshold) {
      continue;
    }
    if (planned_cxl >= high) {
      if (next_victim >= victims.size()) {
        break;
      }
      moves.push_back({victims[next_victim++], kTierCxl, kTierRemote});
      --planned_cxl;
    }
    moves.push_back({slot, kTierRemote, kTierCxl});
    ++planned_cxl;
  }

  // Cold floor: pages whose heat fully decayed on remote sink to flash.
  if (config_.remote_cold_demote_batch > 0) {
    store_->ColdestOf(kTierRemote, config_.remote_cold_demote_batch, scan_);
    for (const SwapSlot slot : scan_) {
      if (store_->AccessCount(kTierRemote, slot) != 0) {
        continue;
      }
      moves.push_back({slot, kTierRemote, kTierSsd});
    }
  }

  // Execution phase: trickle the copies across the period instead of
  // bursting them at tick time. A burst would slam the per-link pacing
  // horizon hundreds of microseconds forward in one event, and every
  // later background op (evictions included - which reclaim, and so
  // demand faults, wait on) would queue behind a mostly-idle wire.
  // Staggered an even fraction of the period apart, the cap's horizon
  // never accumulates and migration occupies only its real wire share.
  // Order is preserved, so a demotion always frees its room before the
  // promotion planned against it; MigrateSlot re-validates residency and
  // capacity at fire time in case the foreground moved underneath us.
  if (!moves.empty()) {
    const SimTimeNs spacing = std::max<SimTimeNs>(
        kTierMigratePeriodNs / static_cast<SimTimeNs>(moves.size() + 1),
        1);
    for (size_t i = 0; i < moves.size(); ++i) {
      const Move m = moves[i];
      events_->ScheduleAt(
          now + static_cast<SimTimeNs>(i + 1) * spacing,
          [this, m](SimTimeNs when) {
            store_->MigrateSlot(m.slot, m.from, m.to, when, rng_);
          });
    }
  }
  idle_epoch_ = moves.empty() ? store_->epoch() : kNoEpoch;
}

}  // namespace leap
