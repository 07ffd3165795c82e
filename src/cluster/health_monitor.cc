#include "src/cluster/health_monitor.h"

#include <algorithm>
#include <stdexcept>

namespace leap {

void HealthMonitorConfig::Validate() const {
  if (ewma_alpha <= 0.0 || ewma_alpha > 1.0) {
    throw std::invalid_argument("HealthMonitorConfig: ewma_alpha in (0,1]");
  }
  if (min_samples == 0) {
    throw std::invalid_argument("HealthMonitorConfig: min_samples >= 1");
  }
  if (suspect_factor <= 1.0) {
    throw std::invalid_argument("HealthMonitorConfig: suspect_factor > 1");
  }
  if (gray_factor < suspect_factor) {
    throw std::invalid_argument(
        "HealthMonitorConfig: gray_factor >= suspect_factor");
  }
  if (clear_factor <= 0.0 || clear_factor > suspect_factor) {
    // A clear threshold above the suspect threshold would flap: the same
    // score would simultaneously demand suspect and healthy.
    throw std::invalid_argument(
        "HealthMonitorConfig: clear_factor in (0, suspect_factor]");
  }
}

HealthMonitor::HealthMonitor(const HealthMonitorConfig& config,
                             size_t node_count)
    : config_(config), nodes_(node_count) {
  config_.Validate();
  median_scratch_.reserve(node_count);
}

void HealthMonitor::RecordRead(uint32_t node, SimTimeNs latency_ns,
                               SimTimeNs now) {
  if (node >= nodes_.size()) {
    return;
  }
  NodeState& ns = nodes_[node];
  const double sample = static_cast<double>(latency_ns);
  if (ns.samples == 0) {
    ns.ewma_ns = sample;
  } else {
    ns.ewma_ns += config_.ewma_alpha * (sample - ns.ewma_ns);
  }
  ++ns.samples;
  // The hedge-delay base tracks the HEALTHY tail: samples from a node
  // currently marked suspect/gray are excluded, otherwise the outlier
  // inflates the very p99 that decides when to hedge against it and the
  // hedge delay chases the failure it is meant to cut.
  if (latency_ns > 0 && ns.state == NodeHealth::kHealthy) {
    read_latency_.Record(static_cast<uint64_t>(latency_ns));
  }

  // Re-judge this node only: other nodes' scores change when the median
  // moves, but they will be re-judged on their own next sample, and a
  // stale mark for at most one inter-sample gap is well inside the
  // hysteresis band.
  if (ns.samples < config_.min_samples) {
    return;
  }
  const bool above_floor = ns.ewma_ns >= static_cast<double>(config_.floor_ns);
  if (!above_floor && ns.state == NodeHealth::kHealthy) {
    return;  // a healthy node under the floor cannot move: skip the median
  }
  const double median = MedianEwmaNs();
  if (median <= 0.0) {
    return;  // no peer group to be an outlier against
  }
  const double score = ns.ewma_ns / median;
  switch (ns.state) {
    case NodeHealth::kHealthy:
      if (above_floor && score >= config_.suspect_factor) {
        // Always via suspect: conviction requires the score to hold for
        // gray_dwell_ns, however damning this one sample looks.
        Transition(ns, NodeHealth::kSuspect, now);
      }
      break;
    case NodeHealth::kSuspect:
      if (above_floor && score >= config_.gray_factor &&
          now - ns.last_transition_at >= config_.gray_dwell_ns) {
        Transition(ns, NodeHealth::kGray, now);
      } else if (!above_floor || score < config_.clear_factor) {
        Transition(ns, NodeHealth::kHealthy, now);
      }
      break;
    case NodeHealth::kGray:
      if (!above_floor || score < config_.clear_factor) {
        Transition(ns, NodeHealth::kHealthy, now);
      }
      break;
  }
}

bool HealthMonitor::IsGray(uint32_t node) const {
  return node < nodes_.size() && nodes_[node].state == NodeHealth::kGray;
}

double HealthMonitor::NodeEwmaNs(uint32_t node) const {
  return node < nodes_.size() ? nodes_[node].ewma_ns : 0.0;
}

SimTimeNs HealthMonitor::ReadLatencyP99Ns() const {
  if (read_latency_.count() < config_.min_samples) {
    return 0;  // cold: hedging stays off until p99 means something
  }
  return static_cast<SimTimeNs>(read_latency_.Percentile(0.99));
}

NodeHealth HealthMonitor::State(uint32_t node) const {
  return node < nodes_.size() ? nodes_[node].state : NodeHealth::kHealthy;
}

uint64_t HealthMonitor::SampleCount(uint32_t node) const {
  return node < nodes_.size() ? nodes_[node].samples : 0;
}

SimTimeNs HealthMonitor::FirstGrayAtNs(uint32_t node) const {
  return node < nodes_.size() ? nodes_[node].first_gray_at : 0;
}

SimTimeNs HealthMonitor::FirstGrayAtOrAfterNs(uint32_t node,
                                              SimTimeNs t) const {
  if (node >= nodes_.size()) {
    return 0;
  }
  for (const SimTimeNs at : nodes_[node].gray_enters) {
    if (at >= t) {
      return at;
    }
  }
  return 0;
}

SimTimeNs HealthMonitor::LastTransitionAtNs(uint32_t node) const {
  return node < nodes_.size() ? nodes_[node].last_transition_at : 0;
}

double HealthMonitor::MedianEwmaNs() {
  // A copy + nth_element into a reused buffer per judged sample: O(nodes)
  // and allocation-free, and RecordRead only asks when a transition is
  // possible. Tens of nodes (cluster-mix runs 64) keep that cheaper than
  // maintaining an order statistic incrementally on every EWMA update.
  //
  // Gray nodes are excluded from the reference median: a confirmed
  // outlier's enormous EWMA would otherwise drag the median toward
  // itself until its own score fell under the clear threshold - the
  // monitor would clear the very node it just convicted, then re-convict
  // it, flapping forever. (A cluster-wide slowdown still flags nobody:
  // with no gray nodes the median spans everyone and moves with them.)
  // If fewer than two non-gray nodes qualify, fall back to all nodes so
  // a half-gray cluster keeps a peer group at all.
  std::vector<double>& ewmas = median_scratch_;
  ewmas.clear();
  for (const NodeState& ns : nodes_) {
    if (ns.samples >= config_.min_samples && ns.state != NodeHealth::kGray) {
      ewmas.push_back(ns.ewma_ns);
    }
  }
  if (ewmas.size() < 2) {
    ewmas.clear();
    for (const NodeState& ns : nodes_) {
      if (ns.samples >= config_.min_samples) {
        ewmas.push_back(ns.ewma_ns);
      }
    }
  }
  if (ewmas.size() < 2) {
    return 0.0;
  }
  const size_t mid = ewmas.size() / 2;
  std::nth_element(ewmas.begin(), ewmas.begin() + mid, ewmas.end());
  if (ewmas.size() % 2 == 1) {
    return ewmas[mid];
  }
  const double hi = ewmas[mid];
  std::nth_element(ewmas.begin(), ewmas.begin() + (mid - 1),
                   ewmas.begin() + mid);
  return 0.5 * (ewmas[mid - 1] + hi);
}

void HealthMonitor::Transition(NodeState& ns, NodeHealth next, SimTimeNs now) {
  if (ns.state == next) {
    return;
  }
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kHealthTransition;
    e.ts = now;
    e.node = static_cast<uint32_t>(&ns - nodes_.data());
    e.a = static_cast<uint8_t>(ns.state);
    e.b = static_cast<uint8_t>(next);
    trace_->Record(e);
  }
  ns.state = next;
  ns.last_transition_at = now;
  if (next == NodeHealth::kGray) {
    if (ns.first_gray_at == 0) {
      ns.first_gray_at = now;
    }
    ns.gray_enters.push_back(now);
  }
  ++transitions_;
  if (counters_ != nullptr) {
    counters_->Add(counter::kGrayTransitions);
  }
}

}  // namespace leap
