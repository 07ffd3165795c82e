#include "src/paging/data_path.h"

#include <cassert>

namespace leap {

size_t DemandIndex(std::span<const IoRequest> reqs) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].cls == IoClass::kDemandRead) {
      return i;
    }
  }
  return reqs.size();
}

namespace {

// Truncated-normal spread of the Leap path's lean entry (mean in the
// header).
constexpr SimTimeNs kLeapEntryStddevNs = 400;
constexpr SimTimeNs kLeapEntryMinNs = 800;

// Shared contract check for both paths: the batch parallels ready_at and
// carries exactly one demand-tagged entry (the tag is the contract; the
// old "index 0" convention is gone). Two demand tags would silently
// misattribute the returned completion, so the count is enforced, not
// just presence.
void CheckBatch(std::span<const IoRequest> reqs,
                std::span<SimTimeNs> ready_at) {
#ifndef NDEBUG
  assert(ready_at.size() == reqs.size() &&
         "ReadPages: ready_at must parallel reqs");
  size_t demand_entries = 0;
  for (const IoRequest& req : reqs) {
    if (req.cls == IoClass::kDemandRead) {
      ++demand_entries;
    }
  }
  assert((reqs.empty() || demand_entries == 1) &&
         "ReadPages: batch must carry exactly one kDemandRead entry");
#else
  (void)reqs;
  (void)ready_at;
#endif
}

}  // namespace

DefaultDataPath::DefaultDataPath(const DefaultPathConfig& config,
                                 BackingStore* store)
    : config_(config), queue_(config.block, store) {}

SimTimeNs DefaultDataPath::ReadPages(std::span<const IoRequest> reqs,
                                     SimTimeNs now, Rng& rng,
                                     std::span<SimTimeNs> ready_at) {
  CheckBatch(reqs, ready_at);
  queue_.SubmitBatch(reqs, now, rng, ready_at);
  const size_t demand = DemandIndex(reqs);
  return demand < reqs.size() ? ready_at[demand] : now;
}

SimTimeNs DefaultDataPath::WritePage(const IoRequest& req, SimTimeNs now,
                                     Rng& rng) {
  return queue_.SubmitWrite(req, now, rng);
}

SimTimeNs DefaultDataPath::CacheHitCost(Rng& rng) {
  if (config_.hit_jitter_ns == 0) {
    return config_.hit_cost_ns;
  }
  return config_.hit_cost_ns + rng.NextU64(config_.hit_jitter_ns);
}

LeapDataPath::LeapDataPath(const LeapPathConfig& config, BackingStore* store)
    : config_(config),
      store_(store),
      entry_(LatencyModel::Normal(kLeapEntryMeanNs, kLeapEntryStddevNs,
                                  kLeapEntryMinNs)) {}

SimTimeNs LeapDataPath::ReadPages(std::span<const IoRequest> reqs,
                                  SimTimeNs now, Rng& rng,
                                  std::span<SimTimeNs> ready_at) {
  CheckBatch(reqs, ready_at);
  if (reqs.empty()) {
    return now;
  }
  // One lean entry for the fault, then per-page asynchronous submission;
  // no sorting, merging, or request-granularity completion.
  const SimTimeNs submit = now + entry_.Sample(rng);
  store_->ReadPages(reqs, submit, rng, ready_at);
  const size_t demand = DemandIndex(reqs);
  return demand < reqs.size() ? ready_at[demand] : now;
}

SimTimeNs LeapDataPath::WritePage(const IoRequest& req, SimTimeNs now,
                                  Rng& rng) {
  const SimTimeNs submit = now + entry_.Sample(rng);
  return store_->WritePage(req, submit, rng);
}

SimTimeNs LeapDataPath::CacheHitCost(Rng& rng) {
  if (config_.hit_jitter_ns == 0) {
    return config_.hit_cost_ns;
  }
  return config_.hit_cost_ns + rng.NextU64(config_.hit_jitter_ns);
}

}  // namespace leap
