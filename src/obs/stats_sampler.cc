#include "src/obs/stats_sampler.h"

#include <cinttypes>
#include <cstdio>

namespace leap {

StatsSampler::StatsSampler(const StatsSamplerConfig& config,
                           EventQueue* events, Collector collector)
    : config_(config), events_(events), collector_(std::move(collector)) {}

void StatsSampler::Start(SimTimeNs at) {
  if (!config_.enabled || events_ == nullptr || !collector_) {
    return;
  }
  events_->ScheduleAt(at, [this](SimTimeNs when) { Tick(when); });
}

void StatsSampler::Tick(SimTimeNs now) {
  StatsSample sample;
  sample.ts = now;
  collector_(now, sample);
  samples_.push_back(std::move(sample));
  events_->ScheduleAt(now + kStatsSamplerPeriodNs,
                      [this](SimTimeNs when) { Tick(when); });
}

void StatsSampler::WriteJsonl(std::ostream& out) const {
  char buf[256];
  for (const StatsSample& s : samples_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ts_ns\": %" PRIu64 ", \"window_demand_ops\": %" PRIu64
                  ", \"window_demand_p50_ns\": %" PRIu64
                  ", \"window_demand_p99_ns\": %" PRIu64
                  ", \"demand_qdelay_ewma_ns\": %.1f"
                  ", \"prefetch_qdelay_ewma_ns\": %.1f",
                  s.ts, s.window_demand_ops, s.window_demand_p50_ns,
                  s.window_demand_p99_ns, s.demand_queue_delay_ewma_ns,
                  s.prefetch_queue_delay_ewma_ns);
    out << buf;
    out << ", \"node_state\": [";
    for (size_t i = 0; i < s.node_state.size(); ++i) {
      out << (i ? ", " : "") << static_cast<unsigned>(s.node_state[i]);
    }
    out << "], \"node_ewma_ns\": [";
    for (size_t i = 0; i < s.node_ewma_ns.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.1f", i ? ", " : "",
                    s.node_ewma_ns[i]);
      out << buf;
    }
    out << "], \"host_free_frames\": [";
    for (size_t i = 0; i < s.host_free_frames.size(); ++i) {
      out << (i ? ", " : "") << s.host_free_frames[i];
    }
    out << "], \"host_cache_pages\": [";
    for (size_t i = 0; i < s.host_cache_pages.size(); ++i) {
      out << (i ? ", " : "") << s.host_cache_pages[i];
    }
    out << "]";
    if (!s.tier_pages.empty()) {
      out << ", \"tier_pages\": [";
      for (size_t i = 0; i < s.tier_pages.size(); ++i) {
        out << (i ? ", " : "") << s.tier_pages[i];
      }
      std::snprintf(buf, sizeof(buf),
                    "], \"tier_promotions\": %" PRIu64
                    ", \"tier_demotions\": %" PRIu64,
                    s.tier_promotions, s.tier_demotions);
      out << buf;
    }
    out << ", \"tenant_budgets\": [";
    for (size_t i = 0; i < s.tenant_budgets.size(); ++i) {
      const StatsSample::TenantBudget& t = s.tenant_budgets[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"host\": %u, \"pid\": %u, \"budget\": %.3f}",
                    i ? ", " : "", t.host, t.pid, t.budget);
      out << buf;
    }
    out << "]}\n";
  }
}

}  // namespace leap
