// Adaptive per-tenant prefetch budget governor (ROADMAP "adaptive
// per-tenant prefetch budgets"; paper section 5.3.3's throttling, closed
// over the cluster's congestion signals instead of per-process accuracy
// alone).
//
// The governor sits between a PrefetchPolicy and the I/O path: every
// fault's candidate vector is clamped to the faulting tenant's current
// budget. Budgets move by AIMD, driven by two inputs the policy interface
// now carries:
//
//  - CongestionSignals (per-class fabric queue-delay EWMAs,
//    remote_capacity_exhausted ticks): when the demand/prefetch classes
//    are congested (CongestionSignals::DataQueueDelayNs - background
//    writeback/repair delay is deliberately excluded so a repair storm
//    cannot trip the governor), tenants whose prefetches are not earning
//    hits take a multiplicative cut; accurate tenants merely stop
//    growing. One tenant's prefetch storm therefore collapses onto itself
//    while a well-predicted sequential tenant keeps its window.
//  - Outcome feedback (OnPrefetchIssued / Hit / Dropped): per-tenant
//    issue/hit/drop counts within the current adjustment epoch decide who
//    is wasteful.
//
// Per-tenant caps follow footprint shares via SwapManager::SlotsOf: while
// congestion holds, a tenant's ceiling scales with its share of the
// swapped working set, so a small tenant cannot monopolize the fabric
// even before AIMD reacts. On a calm fabric the ceiling is max_budget for
// everyone - budgets arbitrate contention, they do not tax smallness.
//
// Determinism: budgets are a pure function of the fault/outcome sequence
// and the signal snapshots - no randomness, no wall-clock - so same-seed
// runs make bit-identical budget decisions.
#ifndef LEAP_SRC_PREFETCH_BUDGET_GOVERNOR_H_
#define LEAP_SRC_PREFETCH_BUDGET_GOVERNOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/container/flat_map.h"
#include "src/prefetch/prefetcher.h"
#include "src/sim/types.h"

namespace leap {

class SwapManager;

struct PrefetchBudgetConfig {
  // Governor off: candidate vectors pass through unclamped and the machine
  // allocates no governor state (the v1-equivalent fast path).
  bool enabled = false;
  // Budget bounds, in prefetch candidates per fault. Budgets start at
  // max_budget and AIMD moves them within [min_budget, cap].
  size_t min_budget = 1;
  size_t max_budget = kMaxPrefetchCandidates;
  // Congestion trips when the demand/prefetch-class fabric queue-delay
  // EWMA (CongestionSignals::DataQueueDelayNs) exceeds this, or when any
  // capacity-exhausted tick landed in the epoch.
  double queue_delay_threshold_ns = 15'000.0;
  // Multiplicative decrease applied to wasteful tenants under congestion.
  double decrease_factor = 0.5;
  // Additive increase per calm epoch.
  double increase_step = 1.0;
  // AIMD epoch length (budget adjustment cadence).
  SimTimeNs adjust_period_ns = 500 * kNsPerUs;
  // Tenants are "wasteful" within an epoch - and take the multiplicative
  // cut when congestion trips - when their accuracy (hits/issued) falls
  // below this, or their drop ratio (evicted-unconsumed/issued) exceeds
  // 1 - this. Tenants that pass both tests hold their budget (they are
  // spending the fabric well).
  double accuracy_keep_threshold = 0.5;
};

class BudgetGovernor {
 public:
  // `swap` (optional) provides per-tenant footprint shares for ceilings;
  // nullptr means every tenant's ceiling is max_budget.
  explicit BudgetGovernor(const PrefetchBudgetConfig& config,
                          const SwapManager* swap = nullptr);

  // Per-fault candidate cap for `pid`. Rolls the AIMD epoch forward when
  // adjust_period_ns has elapsed. Creates tenant state on first use.
  size_t BudgetFor(Pid pid, SimTimeNs now, const CongestionSignals& signals);

  // Outcome feedback (the machine forwards the same events it reports to
  // the policy).
  void OnPrefetchIssued(Pid pid, size_t pages);
  void OnPrefetchHit(Pid pid);
  void OnPrefetchDropped(Pid pid);

  // --- introspection (tests, benches) -------------------------------------
  // Current fractional AIMD budget (max_budget for unknown tenants).
  double budget(Pid pid) const;
  // Outcome counts accumulated in the current (not yet adjusted) epoch.
  uint64_t epoch_issued(Pid pid) const;
  uint64_t epoch_hits(Pid pid) const;
  uint64_t epoch_dropped(Pid pid) const;
  // Footprint-share ceiling currently applied to `pid`.
  size_t CapFor(Pid pid) const;
  // Read-only enumeration of every known tenant's fractional budget, for
  // time-series samplers. Appends (pid, budget) pairs in the FlatMap's
  // deterministic array order. Unlike BudgetFor this NEVER advances the
  // AIMD epoch - sampling must not perturb governor decisions.
  void SnapshotBudgets(
      std::vector<std::pair<Pid, double>>& out) const {
    for (const auto& [pid, tenant] : tenants_) {
      out.emplace_back(pid, tenant.budget);
    }
  }
  bool congested() const { return congested_; }
  uint64_t shrink_events() const { return shrink_events_; }
  uint64_t grow_events() const { return grow_events_; }
  uint64_t epochs() const { return epochs_; }
  const PrefetchBudgetConfig& config() const { return config_; }

 private:
  struct Tenant {
    double budget = 0.0;
    // Outcome counts within the current epoch.
    uint64_t issued = 0;
    uint64_t hits = 0;
    uint64_t dropped = 0;
  };

  void AdjustEpoch(SimTimeNs now, const CongestionSignals& signals);
  // Tenant state for `pid`, created at max_budget on first sight.
  Tenant* TenantFor(Pid pid);

  // Bounds sanitized at construction (min <= max, both within
  // [1, kMaxPrefetchCandidates]).
  PrefetchBudgetConfig config_;
  const SwapManager* swap_;
  FlatMap<Pid, Tenant> tenants_;
  SimTimeNs last_adjust_ = 0;
  uint64_t last_exhausted_total_ = 0;
  bool congested_ = false;
  uint64_t shrink_events_ = 0;
  uint64_t grow_events_ = 0;
  uint64_t epochs_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_PREFETCH_BUDGET_GOVERNOR_H_
