// Periodic time-series sampler: a self-rescheduling tick on the shared
// EventQueue (the same pattern kswapd uses) that snapshots whatever the
// owner's collector callback fills in - per-tenant prefetch budgets,
// per-class queue-delay EWMAs, health-monitor node states, frame-pool
// occupancy, and a windowed demand-latency percentile - into an in-memory
// series dumped as JSONL at end of run.
//
// Gating contract: the sampler only exists when enabled (the Cluster holds
// a null pointer otherwise), it never mutates simulation state (the
// collector must be read-only), and it draws no randomness - so enabling
// it changes no simulation result, and two same-seed runs produce
// byte-identical sample series (pinned by obs_trace_test).
//
// The sampler lives in src/obs below src/runtime, so it cannot see
// Machine or Cluster types: the owner injects a collector closure instead
// of the sampler reaching up the stack.
#ifndef LEAP_SRC_OBS_STATS_SAMPLER_H_
#define LEAP_SRC_OBS_STATS_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/types.h"

namespace leap {

// Sampling cadence. 200 us resolves a ~1 ms gray-detection window into
// ~5 points without swamping a smoke run's event count.
inline constexpr SimTimeNs kStatsSamplerPeriodNs = 200 * kNsPerUs;

struct StatsSamplerConfig {
  bool enabled = false;
};

// One sample row. Plain data; the collector fills it, WriteJsonl prints
// it. Vectors are indexed by host / node id respectively.
struct StatsSample {
  SimTimeNs ts = 0;

  // Demand-read latency over the window since the previous sample.
  uint64_t window_demand_ops = 0;
  uint64_t window_demand_p50_ns = 0;
  uint64_t window_demand_p99_ns = 0;

  // Fabric per-class queue-delay EWMAs (cumulative signals).
  double demand_queue_delay_ewma_ns = 0.0;
  double prefetch_queue_delay_ewma_ns = 0.0;

  // Health monitor, indexed by node: state 0=healthy 1=suspect 2=gray.
  std::vector<uint8_t> node_state;
  std::vector<double> node_ewma_ns;

  // Frame pool / page cache occupancy, indexed by host.
  std::vector<size_t> host_free_frames;
  std::vector<size_t> host_cache_pages;

  // Tiered-memory occupancy (pages per tier, summed over hosts) and
  // cumulative migration volume. Empty/zero - and omitted from the JSONL -
  // unless the run has tiering enabled, so untiered time series are
  // byte-identical to pre-tiering builds.
  std::vector<size_t> tier_pages;
  uint64_t tier_promotions = 0;
  uint64_t tier_demotions = 0;

  // Per-tenant AIMD prefetch budgets.
  struct TenantBudget {
    uint32_t host = 0;
    Pid pid = 0;
    double budget = 0.0;
  };
  std::vector<TenantBudget> tenant_budgets;
};

class StatsSampler {
 public:
  // The collector fills one StatsSample at each tick. It must be
  // read-only with respect to simulation state and must not allocate
  // into the sampler (the sample row is fresh each tick).
  using Collector = std::function<void(SimTimeNs now, StatsSample& sample)>;

  StatsSampler(const StatsSamplerConfig& config, EventQueue* events,
               Collector collector);

  // Arms the first tick at `at`; subsequent ticks self-reschedule every
  // period until the event queue stops being drained.
  void Start(SimTimeNs at);

  const StatsSamplerConfig& config() const { return config_; }
  const std::vector<StatsSample>& samples() const { return samples_; }

  // One JSON object per line (JSONL), oldest first.
  void WriteJsonl(std::ostream& out) const;

 private:
  void Tick(SimTimeNs now);

  StatsSamplerConfig config_;
  EventQueue* events_ = nullptr;
  Collector collector_;
  std::vector<StatsSample> samples_;
};

}  // namespace leap

#endif  // LEAP_SRC_OBS_STATS_SAMPLER_H_
