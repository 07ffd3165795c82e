// Background hot/cold migrator: a kswapd-style self-rescheduling tick on
// the shared EventQueue (the same pattern as kswapd and StatsSampler) that
// keeps the fast tier holding the hot pages.
//
// Each tick, in order:
//   1. every `decay_every_ticks` ticks, halve all access counts (aging);
//   2. collect victims: the CXL tier's recency tail, restricted to pages
//      whose heat is below promote_threshold (a page as hot as the ones
//      we would promote is never demoted - that would be ping-pong);
//   3. watermark demote: drain first-touch placement overshoot (above the
//      high watermark) down to the low watermark, victims only;
//   4. promote by exchange: each remote page at/above promote_threshold
//      takes free fast-tier room, or displaces one victim; when victims
//      run out the fast tier is full of hot pages and migration stops -
//      churn is bounded by the supply of provably-cold pages, not by the
//      batch size;
//   5. optionally sink fully-decayed (count==0) remote pages to the SSD
//      cold floor.
//
// Planning and execution are split: the tick decides every move against a
// simulated occupancy, then schedules the copies spread evenly across the
// period (instead of bursting them at tick time, which would ratchet the
// per-link pacing horizon far forward in one event and stall every later
// background op behind a mostly-idle wire).
//
// All copies go through TieredStore::MigrateSlot as IoClass::kMigration,
// so the fabric's per-link migration bandwidth cap bounds how hard this
// loop can ever lean on the links - demand p99 is protected by
// construction, not by tuning.
//
// Allocation: the plan's scratch vectors are members reused tick to tick,
// so once they reach batch size a tick allocates nothing.
//
// Determinism: the migrator owns its own Rng (seeded at construction, so
// a disabled migrator draws nothing from the machine's stream) and runs
// only from event-queue ticks, so same-seed runs migrate identically.
#ifndef LEAP_SRC_TIER_TIER_MIGRATOR_H_
#define LEAP_SRC_TIER_TIER_MIGRATOR_H_

#include <cstdint>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/tier/tier_config.h"
#include "src/tier/tiered_store.h"

namespace leap {

class TierMigrator {
 public:
  TierMigrator(const TierConfig& config, EventQueue* events,
               TieredStore* store, uint64_t seed);

  // Arms the first tick at `at`; ticks self-reschedule every
  // kTierMigratePeriodNs for as long as the queue is drained.
  void Start(SimTimeNs at);

  uint64_t ticks() const { return ticks_; }

 private:
  struct Move {
    SwapSlot slot;
    size_t from;
    size_t to;
  };

  void Tick(SimTimeNs now);

  TierConfig config_;
  EventQueue* events_;
  TieredStore* store_;
  Rng rng_;
  uint64_t ticks_ = 0;
  // Per-tick scratch: one LRU scan at a time, the demotion victims, and
  // the planned moves.
  std::vector<SwapSlot> scan_;
  std::vector<SwapSlot> victims_;
  std::vector<Move> moves_;
};

}  // namespace leap

#endif  // LEAP_SRC_TIER_TIER_MIGRATOR_H_
