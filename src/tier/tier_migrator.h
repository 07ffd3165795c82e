// Background hot/cold migrator: a kswapd-style periodic tick that keeps
// the fast tier holding the hot pages. Who fires the tick depends on who
// owns the event queue, exactly as for kswapd: a standalone machine arms
// a self-rescheduling tick with Start; on a cluster shard's shared queue
// the shard owns one periodic event that calls every home host's Tick in
// host-id order (src/runtime/cluster.h), so the heap holds one tier event
// per shard, not one per host.
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
// Idle ticks: the plan reads only store state, so when a tick planned no
// moves and the store's mutation epoch has not moved since, the next
// tick's plan is empty too. Such a tick counts itself and decays (decay
// bumps the epoch, so a decay tick always plans), then returns - exact,
// and an idle host's tick costs two compares.
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

  // Arms a self-rescheduling tick: Tick at `at` and every
  // kTierMigratePeriodNs after, for as long as the queue is drained. For
  // a migrator that owns the schedule of its queue; a shared queue's owner
  // calls Tick itself instead.
  void Start(SimTimeNs at);

  // One migration pass at `now`: count, maybe decay, plan, and schedule
  // the planned copies across the coming period.
  void Tick(SimTimeNs now);

  uint64_t ticks() const { return ticks_; }
  // Sets the tick count (and so the decay phase): a migrator that joins a
  // running driver starts at the driver's count.
  void set_ticks(uint64_t ticks) { ticks_ = ticks; }

 private:
  struct Move {
    SwapSlot slot;
    size_t from;
    size_t to;
  };

  static constexpr uint64_t kNoEpoch = ~uint64_t{0};

  TierConfig config_;
  EventQueue* events_;
  TieredStore* store_;
  Rng rng_;
  uint64_t ticks_ = 0;
  // Store epoch at the last tick that planned no moves; kNoEpoch after a
  // tick that planned some.
  uint64_t idle_epoch_ = kNoEpoch;
  // Per-tick scratch: one LRU scan at a time, the demotion victims, and
  // the planned moves.
  std::vector<SwapSlot> scan_;
  std::vector<SwapSlot> victims_;
  std::vector<Move> moves_;
};

}  // namespace leap

#endif  // LEAP_SRC_TIER_TIER_MIGRATOR_H_
