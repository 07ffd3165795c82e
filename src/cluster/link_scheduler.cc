#include "src/cluster/link_scheduler.h"

#include <algorithm>

namespace leap {
namespace {

// Weights below this are clamped up: a zero weight would turn the DRR
// spacing ratio W/w into a division blow-up, and "no service at all" is
// not a share DRR can express.
constexpr double kMinWeight = 1e-3;
// Weight of a host beyond LinkSchedulerConfig::host_weights.
constexpr double kDefaultWeight = 1.0;

class FifoScheduler final : public LinkScheduler {
 public:
  SimTimeNs ScheduleOp(LinkSchedState& up, LinkSchedState& down,
                       const IoRequest& /*req*/, SimTimeNs now,
                       SimTimeNs serialization_ns) override {
    // The transfer occupies the sender's uplink and the receiver's
    // downlink for one serialization slot, in strict arrival order -
    // exactly the pre-scheduler fabric, kept bit-identical as the parity
    // baseline.
    const SimTimeNs start =
        std::max(now, std::max(up.busy_until, down.busy_until));
    const SimTimeNs end = start + serialization_ns;
    up.busy_until = end;
    down.busy_until = end;
    return start;
  }

  std::string_view name() const override { return "fifo"; }
};

class DemandPriorityScheduler final : public LinkScheduler {
 public:
  SimTimeNs ScheduleOp(LinkSchedState& up, LinkSchedState& down,
                       const IoRequest& req, SimTimeNs now,
                       SimTimeNs serialization_ns) override {
    if (req.cls == IoClass::kDemandRead) {
      // Demand queues only behind demand: the per-class horizon ignores
      // every queued background op (preemption-at-enqueue). The claimed
      // slot still consumes wire capacity, so the all-class horizon is
      // pushed out behind it and later background arrivals pay for the
      // displacement.
      const SimTimeNs start =
          std::max(now, std::max(up.demand_until, down.demand_until));
      const SimTimeNs end = start + serialization_ns;
      up.demand_until = end;
      down.demand_until = end;
      up.busy_until = std::max(up.busy_until, start) + serialization_ns;
      down.busy_until = std::max(down.busy_until, start) + serialization_ns;
      return start;
    }
    // Background (prefetch/writeback/eviction/repair): behind everything,
    // demand included.
    const SimTimeNs start =
        std::max(now, std::max(up.busy_until, down.busy_until));
    const SimTimeNs end = start + serialization_ns;
    up.busy_until = end;
    down.busy_until = end;
    return start;
  }

  std::string_view name() const override { return "demand-priority"; }
};

class DrrScheduler final : public LinkScheduler {
 public:
  explicit DrrScheduler(const LinkSchedulerConfig& config)
      : weights_(config.host_weights) {
    for (double& w : weights_) {
      w = std::max(w, kMinWeight);
    }
  }

  SimTimeNs ScheduleOp(LinkSchedState& up, LinkSchedState& down,
                       const IoRequest& req, SimTimeNs now,
                       SimTimeNs serialization_ns) override {
    const uint64_t key =
        (static_cast<uint64_t>(req.host) << 32) | req.tenant;
    const double w = WeightFor(req.host);
    // The op starts once the flow's queued work has drained at its fair
    // rate on both links it crosses.
    const SimTimeNs start = std::max(
        now, std::max(Horizon(up, key), Horizon(down, key)));
    // Fluid fair sharing: with total backlogged weight W on a link, this
    // flow drains at rate w/W of the link, so its next op is one weighted
    // slot later. W is re-read per op, which is how service speeds back up
    // the moment a competing flow goes idle (work conservation).
    Advance(up, key, start, serialization_ns, w, now);
    Advance(down, key, start, serialization_ns, w, now);
    return start;
  }

  std::string_view name() const override { return "drr"; }

 private:
  double WeightFor(uint32_t host) const {
    return host < weights_.size() ? weights_[host] : kDefaultWeight;
  }

  static SimTimeNs Horizon(const LinkSchedState& link, uint64_t key) {
    const SimTimeNs* h = link.flow_horizon.Find(key);
    return h == nullptr ? 0 : *h;
  }

  void Advance(LinkSchedState& link, uint64_t key, SimTimeNs start,
               SimTimeNs serialization_ns, double weight, SimTimeNs now) {
    // One pass over the link's flows: sum the backlogged weight and
    // collect drained flows for pruning (an idle flow's horizon reads as
    // 0 either way, so erasing it is semantics-preserving - it keeps this
    // scan proportional to *live* flows instead of every (host, tenant)
    // pair the link has ever seen across joins/leaves).
    double active_weight = weight;
    InlineVec<uint64_t, kPruneBatch> drained;
    for (const auto& [flow, horizon] : link.flow_horizon) {
      if (flow == key) {
        continue;
      }
      if (horizon > now) {
        active_weight += WeightFor(static_cast<uint32_t>(flow >> 32));
      } else if (drained.size() < kPruneBatch) {
        drained.push_back(flow);
      }
    }
    for (const uint64_t flow : drained) {
      link.flow_horizon.Erase(flow);
    }
    const auto spacing = static_cast<SimTimeNs>(
        static_cast<double>(serialization_ns) * (active_weight / weight));
    link.flow_horizon[key] = start + spacing;
    // All-class horizon kept for introspection (DRR places by flow
    // horizons, not by it).
    link.busy_until = std::max(link.busy_until, start + serialization_ns);
  }

  // Idle flows erased per op, bounding prune work on the hot path.
  static constexpr size_t kPruneBatch = 8;

  std::vector<double> weights_;
};

}  // namespace

std::unique_ptr<LinkScheduler> MakeLinkScheduler(
    const LinkSchedulerConfig& config) {
  switch (config.kind) {
    case LinkSchedulerKind::kFifo:
      return std::make_unique<FifoScheduler>();
    case LinkSchedulerKind::kDemandPriority:
      return std::make_unique<DemandPriorityScheduler>();
    case LinkSchedulerKind::kDrr:
      return std::make_unique<DrrScheduler>(config);
  }
  return std::make_unique<FifoScheduler>();
}

}  // namespace leap
