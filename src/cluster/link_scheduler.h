// Pluggable per-link fabric schedulers: who gets the next wire slot.
//
// The fabric assigns every page op its serialization slot at enqueue time
// (the discrete-event simulation returns completion times synchronously,
// so a slot can never be revised once handed out). A LinkScheduler is the
// policy that picks the slot: it sees the op's IoRequest tag and the two
// links the op crosses (source uplink, target downlink) and returns the
// wire start time, advancing per-link horizons as it goes.
//
// Three policies:
//
//  - FifoScheduler: one busy-until horizon per link, strict arrival order.
//    Bit-identical to the pre-scheduler fabric - the parity baseline and
//    the default.
//  - DemandPriorityScheduler: strict priority for IoClass::kDemandRead.
//    Demand reads queue only behind other demand reads (per-class
//    horizon); background classes (prefetch/writeback/eviction/repair)
//    queue behind everything. Preemption happens at enqueue: a demand op
//    claims the next demand slot even when queued background work holds
//    the all-class horizon, and the background backlog is pushed out
//    behind it. Because already-returned completions cannot be revised,
//    the displaced background op keeps its original (now optimistic)
//    completion; the cost lands on background work enqueued later. The
//    paper's section 4 data-path claim - prefetches must never delay
//    demand fetches - is exactly this policy at the link layer.
//  - DrrScheduler: per-tenant deficit round robin, fluid (GPS)
//    approximation. Flows are keyed by (host, tenant); a backlogged flow's
//    ops are paced at serialization * W/w apart, where w is the flow's
//    weight and W the total weight of currently-backlogged flows on the
//    link - so byte shares on a saturated link match the configured
//    weights, while a flow alone on the link is paced at full rate
//    (work-conserving). Ops of distinct flows may overlap inside a round
//    (the enqueue-time-assignment limitation above); the fabric's exact
//    ring-based incast term still charges the aggregate load.
//
// A per-link repair-bandwidth cap rides the same slot-assignment
// mechanism (see Fabric::SubmitPageOp): repair ops on a link are paced at
// least serialization / fraction apart, bounding repair to `fraction` of
// the link rate under any scheduler.
//
// Determinism: schedulers are pure functions of the op sequence and the
// per-link state they maintain - no randomness, no wall clock - so
// same-seed cluster runs make bit-identical scheduling decisions.
#ifndef LEAP_SRC_CLUSTER_LINK_SCHEDULER_H_
#define LEAP_SRC_CLUSTER_LINK_SCHEDULER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/container/flat_map.h"
#include "src/sim/io_request.h"
#include "src/sim/types.h"

namespace leap {

enum class LinkSchedulerKind { kFifo, kDemandPriority, kDrr };

constexpr const char* LinkSchedulerKindName(LinkSchedulerKind kind) {
  switch (kind) {
    case LinkSchedulerKind::kFifo: return "fifo";
    case LinkSchedulerKind::kDemandPriority: return "demand-priority";
    case LinkSchedulerKind::kDrr: return "drr";
  }
  return "unknown";
}

struct LinkSchedulerConfig {
  LinkSchedulerKind kind = LinkSchedulerKind::kFifo;
  // DRR weights, indexed by fabric host id; hosts beyond the vector (and
  // every host when it is empty) weigh 1. Weights must be positive;
  // non-positive entries are clamped at construction.
  std::vector<double> host_weights;
  // Fraction of each link's bandwidth repair traffic may consume
  // (1.0 = uncapped; enforced by Fabric for every scheduler kind).
  double repair_bandwidth_fraction = 1.0;
  // Same cap for tier-migration traffic (IoClass::kMigration): the
  // migrator's background copies are paced so they can never take more
  // than this fraction of any link.
  double migration_bandwidth_fraction = 1.0;
};

// Scheduling state of one link. One struct serves all scheduler kinds
// (each uses the fields it needs); the fabric embeds it in its per-link
// record and hands it to the scheduler by reference.
struct LinkSchedState {
  // All-class wire horizon: when every slot handed out so far has
  // serialized. FIFO's only state; the background horizon under
  // demand-priority.
  SimTimeNs busy_until = 0;
  // Demand-class horizon (DemandPriorityScheduler).
  SimTimeNs demand_until = 0;
  // Earliest time the next repair op may take a slot (repair cap pacing;
  // maintained by Fabric, honored before the scheduler runs).
  SimTimeNs repair_allowed_at = 0;
  // Same pacing horizon for tier-migration ops (migration cap).
  SimTimeNs migration_allowed_at = 0;
  // Per-flow pacing horizons (DrrScheduler), keyed by
  // (host << 32) | tenant. A flow is backlogged while horizon > now.
  FlatMap<uint64_t, SimTimeNs> flow_horizon;
};

class LinkScheduler {
 public:
  virtual ~LinkScheduler() = default;

  // Assigns the op's wire slot: returns wire_start >= now and advances the
  // horizons of `up` and `down`. The fabric calls this once per op, with
  // per-link `now` values that never decrease faster than the simulation's
  // small cross-host reorderings (horizons only ratchet forward).
  virtual SimTimeNs ScheduleOp(LinkSchedState& up, LinkSchedState& down,
                               const IoRequest& req, SimTimeNs now,
                               SimTimeNs serialization_ns) = 0;

  // Stable name (views a string literal; reporting paths must not
  // allocate).
  virtual std::string_view name() const = 0;
};

// Builds the scheduler for `config.kind`. The returned scheduler is
// stateless across links (all mutable state lives in LinkSchedState), so
// one instance serves every link of a fabric.
std::unique_ptr<LinkScheduler> MakeLinkScheduler(
    const LinkSchedulerConfig& config);

}  // namespace leap

#endif  // LEAP_SRC_CLUSTER_LINK_SCHEDULER_H_
