#include "src/prefetch/budget_governor.h"

#include <algorithm>
#include <cmath>

#include "src/paging/swap_manager.h"

namespace leap {

BudgetGovernor::BudgetGovernor(const PrefetchBudgetConfig& config,
                               const SwapManager* swap)
    : config_(config), swap_(swap) {
  // Sanitize the bounds once so every later std::clamp(lo, hi) holds its
  // precondition: budgets live in [1, kMaxPrefetchCandidates] and
  // min <= max.
  config_.min_budget =
      std::clamp<size_t>(config_.min_budget, 1, kMaxPrefetchCandidates);
  config_.max_budget = std::clamp<size_t>(
      config_.max_budget, config_.min_budget, kMaxPrefetchCandidates);
}

BudgetGovernor::Tenant* BudgetGovernor::TenantFor(Pid pid) {
  auto [tenant, inserted] = tenants_.Emplace(pid);
  if (inserted) {
    tenant->budget = static_cast<double>(config_.max_budget);
  }
  return &*tenant;
}

size_t BudgetGovernor::CapFor(Pid pid) const {
  if (swap_ == nullptr || tenants_.size() < 2) {
    return config_.max_budget;
  }
  const size_t total = swap_->allocated_slots();
  if (total == 0) {
    return config_.max_budget;
  }
  // Footprint-proportional ceiling, normalized so equal shares yield
  // max_budget each: cap_i = max * (slots_i / total) * n_tenants. A tenant
  // holding less than its 1/n share of the swapped working set gets a
  // proportionally lower ceiling.
  const double share = static_cast<double>(swap_->SlotsOf(pid)) /
                       static_cast<double>(total);
  const double scaled = static_cast<double>(config_.max_budget) * share *
                        static_cast<double>(tenants_.size());
  const double capped =
      std::min(scaled, static_cast<double>(config_.max_budget));
  const auto cap = static_cast<size_t>(std::ceil(capped));
  return std::clamp(cap, config_.min_budget, config_.max_budget);
}

void BudgetGovernor::AdjustEpoch(SimTimeNs now,
                                 const CongestionSignals& signals) {
  if (now < last_adjust_ + config_.adjust_period_ns) {
    return;
  }
  last_adjust_ = now;
  ++epochs_;
  const uint64_t recent_exhausted =
      signals.capacity_exhausted_total - last_exhausted_total_;
  last_exhausted_total_ = signals.capacity_exhausted_total;
  // Key on the demand/prefetch (data-class) queue-delay EWMAs only: the
  // aggregate EWMA also counts writeback/eviction/repair ops, so a repair
  // storm after a node failure would otherwise read as data-path
  // congestion and throttle tenants whose prefetches are not the problem.
  congested_ =
      signals.DataQueueDelayNs() > config_.queue_delay_threshold_ns ||
      recent_exhausted > 0;

  for (auto [pid, tenant] : tenants_) {
    if (congested_) {
      if (tenant.issued > 0) {
        const double accuracy = static_cast<double>(tenant.hits) /
                                static_cast<double>(tenant.issued);
        // Drops are the lagging half of the waste evidence: pages issued
        // in earlier epochs dying unconsumed now (so the ratio may exceed
        // 1 - it is a trigger, not a fraction of this epoch's issues).
        const double drop_ratio = static_cast<double>(tenant.dropped) /
                                  static_cast<double>(tenant.issued);
        if (accuracy < config_.accuracy_keep_threshold ||
            drop_ratio > 1.0 - config_.accuracy_keep_threshold) {
          // Wasteful under congestion: multiplicative decrease.
          tenant.budget *= config_.decrease_factor;
          ++shrink_events_;
        }
        // Accurate tenants hold their window: their prefetches are
        // spending the fabric well; the waste is someone else's.
      }
    } else if (tenant.budget <
               static_cast<double>(config_.max_budget)) {
      // Calm epoch: additive recovery.
      tenant.budget += config_.increase_step;
      ++grow_events_;
    }
    tenant.budget = std::clamp(tenant.budget,
                               static_cast<double>(config_.min_budget),
                               static_cast<double>(config_.max_budget));
    tenant.issued = 0;
    tenant.hits = 0;
    tenant.dropped = 0;
  }
}

size_t BudgetGovernor::BudgetFor(Pid pid, SimTimeNs now,
                                 const CongestionSignals& signals) {
  AdjustEpoch(now, signals);
  Tenant* tenant = TenantFor(pid);
  // The footprint-share ceiling binds only while the fabric is congested:
  // budgets are a contention-arbitration mechanism, and a small tenant on
  // a calm fabric must not be crushed for being small.
  const size_t cap = congested_ ? CapFor(pid) : config_.max_budget;
  const double capped = std::min(tenant->budget, static_cast<double>(cap));
  return static_cast<size_t>(
      std::max(capped, static_cast<double>(config_.min_budget)));
}

void BudgetGovernor::OnPrefetchIssued(Pid pid, size_t pages) {
  TenantFor(pid)->issued += pages;
}

void BudgetGovernor::OnPrefetchHit(Pid pid) {
  if (Tenant* tenant = tenants_.Find(pid)) {
    ++tenant->hits;
  }
}

void BudgetGovernor::OnPrefetchDropped(Pid pid) {
  if (Tenant* tenant = tenants_.Find(pid)) {
    ++tenant->dropped;
  }
}

double BudgetGovernor::budget(Pid pid) const {
  const Tenant* tenant = tenants_.Find(pid);
  return tenant == nullptr ? static_cast<double>(config_.max_budget)
                           : tenant->budget;
}

uint64_t BudgetGovernor::epoch_issued(Pid pid) const {
  const Tenant* tenant = tenants_.Find(pid);
  return tenant == nullptr ? 0 : tenant->issued;
}

uint64_t BudgetGovernor::epoch_hits(Pid pid) const {
  const Tenant* tenant = tenants_.Find(pid);
  return tenant == nullptr ? 0 : tenant->hits;
}

uint64_t BudgetGovernor::epoch_dropped(Pid pid) const {
  const Tenant* tenant = tenants_.Find(pid);
  return tenant == nullptr ? 0 : tenant->dropped;
}

}  // namespace leap
