// Per-node read-latency health monitor: the detection half of the gray-
// failure story (the mitigation half lives in HostAgent's resilience path).
//
// A gray node is the failure the crash detector cannot see: it answers
// every request, heartbeats on time, and serves reads 10-100x slow. The
// monitor detects it the only way possible - relatively. Each node carries
// a read-latency EWMA; a node's outlier score is its EWMA divided by the
// median EWMA across nodes, so a cluster-wide slowdown (incast, a hot
// tenant) moves every EWMA together and flags nobody, while a single slow
// node stands out immediately.
//
// State machine per node, driven by the outlier score with hysteresis:
//
//     healthy --(score >= suspect_factor)--> suspect
//     suspect --(score >= gray_factor,
//                held for gray_dwell_ns)---> gray
//     suspect --(score <  clear_factor)----> healthy
//     gray    --(score <  clear_factor)----> healthy
//
// Every conviction passes through suspect and must HOLD an at-or-above-
// gray score for gray_dwell_ns, so one synchronized congestion burst
// cannot mark a node gray; the clear threshold sitting well below the
// suspect threshold means a node hovering at the boundary does not flap
// between states. Transitions are counted (counter::kGrayTransitions) and
// the first time each node turns gray is kept, so benchmarks can report
// the detection window (injection time -> first gray mark).
//
// The monitor implements NodeHealthTracker (declared in rdma/host_agent.h,
// same layering pattern as PageTransport): HostAgents feed it demand-read
// completions and consult IsGray/NodeEwmaNs/ReadLatencyP99Ns for gray
// avoidance, hedge-target ranking, and the p99-based hedge delay.
//
// Determinism: the monitor is pure state driven off the recorded latency
// stream - no clocks, no randomness - so same-seed runs produce identical
// health views and identical mitigation decisions.
#ifndef LEAP_SRC_CLUSTER_HEALTH_MONITOR_H_
#define LEAP_SRC_CLUSTER_HEALTH_MONITOR_H_

#include <cstdint>
#include <vector>

#include "src/obs/trace_recorder.h"
#include "src/rdma/host_agent.h"
#include "src/sim/types.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"

namespace leap {

enum class NodeHealth : uint8_t {
  kHealthy = 0,
  kSuspect,  // outlier-slow; watched, not yet avoided
  kGray,     // confirmed outlier; demand reads are steered away
};

constexpr const char* NodeHealthName(NodeHealth h) {
  switch (h) {
    case NodeHealth::kHealthy: return "healthy";
    case NodeHealth::kSuspect: return "suspect";
    case NodeHealth::kGray: return "gray";
  }
  return "unknown";
}

struct HealthMonitorConfig {
  // EWMA smoothing factor (weight of the newest sample). 1/8 mirrors the
  // TCP RTT estimator: smooth enough to ride out one slow read, fast
  // enough that a genuine 10x slowdown crosses the gray threshold within
  // a few tens of samples.
  double ewma_alpha = 0.125;
  // A node is never judged before this many samples (its EWMA is still
  // mostly initial transient), and the cluster p99 reads 0 until this many
  // total samples accumulated (hedging stays off while cold).
  uint64_t min_samples = 32;
  // Outlier-score thresholds (score = node EWMA / median of node EWMAs).
  double suspect_factor = 2.0;  // healthy -> suspect at or above this
  double gray_factor = 4.0;     // suspect -> gray at or above this
  double clear_factor = 1.5;    // suspect/gray -> healthy below this
  // Latency floor: nodes whose EWMA sits under the floor are never flagged
  // no matter the ratio (a 2x outlier at microsecond scale is noise, not a
  // gray node).
  SimTimeNs floor_ns = 10 * kNsPerUs;
  // Minimum time a node must dwell in suspect before it can be convicted
  // gray. A synchronized burst (hosts unblocking together after a slow
  // read) spikes several EWMAs 4-5x for a few hundred microseconds; the
  // dwell forces the outlier score to HOLD before avoidance kicks in,
  // trading ~1 ms of detection latency for not convicting half the
  // cluster off one burst. 0 restores single-sample conviction.
  SimTimeNs gray_dwell_ns = 1 * kNsPerMs;

  void Validate() const;  // throws std::invalid_argument
};

class HealthMonitor : public NodeHealthTracker {
 public:
  HealthMonitor(const HealthMonitorConfig& config, size_t node_count);

  void SetCounters(Counters* counters) { counters_ = counters; }
  // Flight recorder: every state change records a kHealthTransition
  // instant (a = from state, b = to state). Null disables.
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }

  // NodeHealthTracker --------------------------------------------------------
  void RecordRead(uint32_t node, SimTimeNs latency_ns, SimTimeNs now) override;
  bool IsGray(uint32_t node) const override;
  double NodeEwmaNs(uint32_t node) const override;
  SimTimeNs ReadLatencyP99Ns() const override;

  // Health view --------------------------------------------------------------
  NodeHealth State(uint32_t node) const;
  uint64_t SampleCount(uint32_t node) const;
  // Simulation time the node was FIRST marked gray (0 = never). Subtracting
  // the fault-injection time gives the detection window fig16 reports.
  SimTimeNs FirstGrayAtNs(uint32_t node) const;
  // First time the node entered gray at or after `t` (0 = never did).
  // The detection-window query: a transient false positive BEFORE the
  // fault was injected must not masquerade as instant detection.
  SimTimeNs FirstGrayAtOrAfterNs(uint32_t node, SimTimeNs t) const;
  // Simulation time of the node's most recent state change (0 = never).
  SimTimeNs LastTransitionAtNs(uint32_t node) const;
  uint64_t transition_count() const { return transitions_; }
  size_t node_count() const { return nodes_.size(); }

 private:
  struct NodeState {
    double ewma_ns = 0.0;
    uint64_t samples = 0;
    NodeHealth state = NodeHealth::kHealthy;
    SimTimeNs first_gray_at = 0;
    SimTimeNs last_transition_at = 0;
    // Every gray-entry time, in order. Tiny (bounded by transition count);
    // lets FirstGrayAtOrAfterNs answer "when was the fault detected"
    // without a pre-fault false positive shadowing the real detection.
    std::vector<SimTimeNs> gray_enters;
  };

  // Median of the EWMAs of all nodes with >= min_samples (0 when fewer
  // than two nodes qualify - a one-node "cluster" has no peers to be an
  // outlier against).
  double MedianEwmaNs();
  void Transition(NodeState& ns, NodeHealth next, SimTimeNs now);

  HealthMonitorConfig config_;
  std::vector<NodeState> nodes_;
  // Cluster-wide latency of reads against then-healthy nodes; feeds the
  // p99 hedge delay (suspect/gray samples excluded - see RecordRead).
  Histogram read_latency_;
  // MedianEwmaNs's working copy, sized once to node_count.
  std::vector<double> median_scratch_;
  Counters* counters_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  uint64_t transitions_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_CLUSTER_HEALTH_MONITOR_H_
