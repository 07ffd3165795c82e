#include "src/prefetch/online_delta.h"

#include <algorithm>

namespace leap {
namespace {

// Max candidates chained per fault before accuracy scaling.
constexpr uint32_t kMaxDepth = 8;
static_assert(kMaxDepth <= kMaxPrefetchCandidates);
// Saturation caps. count is the Markov evidence; weight is the trained
// confidence delta in [-kWeightCap, kWeightCap].
constexpr uint32_t kCountCap = 15;
constexpr int32_t kWeightCap = 16;
// A successor delta is emitted while count + 2*weight >= kEmitThreshold:
// a transition that recurred is explored once, then lives or dies by its
// feedback (one drop gates it, one hit locks it in for a while).
constexpr int32_t kEmitThreshold = 2;
// Accuracy epoch length, in issued prefetches: each epoch re-tiers the
// depth scale (100% / 75% / 50%) from the epoch's hit ratio.
constexpr uint32_t kAccuracyWindow = 64;
// Proximity bandit: each arm is probed kProximityProbe times; afterwards
// it is emitted only while its observed hit rate stays at or above
// kProximityMinRatePct, best-rate first, at most kProximityMaxEmit per
// fault. Stats halve when an arm's issue count reaches kProximityStatCap
// so the estimate can drift with the workload.
constexpr uint32_t kProximityProbe = 8;
constexpr uint32_t kProximityMinRatePct = 10;
constexpr uint32_t kProximityMaxEmit = 4;
constexpr uint32_t kProximityStatCap = 4096;
// Stop emitting (keep learning) while the fabric data-path queue delay
// exceeds this.
constexpr SimTimeNs kCongestionBackoffNs = 200'000;

}  // namespace

OnlineDeltaPolicy::OnlineDeltaPolicy() {
  table_.Reserve(std::min<size_t>(kOnlineDeltaMaxEntries, 1024));
  outstanding_.Reserve(256);
}

void OnlineDeltaPolicy::EmitProximity(const FaultContext& ctx, size_t budget,
                                      CandidateVec& out) {
  budget = std::min<size_t>(budget, kProximityMaxEmit);
  // Selection per slot: unprobed arms first (smallest index, so +1 before
  // -1 and near before far), then probed arms by hit rate while the rate
  // clears the floor. Integer ranks keep every comparison deterministic.
  static_assert(2 * kProximityMaxDelta <= 64);  // the selection scratch
  bool taken[64] = {};
  for (size_t n = 0; n < budget; ++n) {
    size_t best = prox_.size();
    int64_t best_rank = -1;
    for (size_t i = 0; i < prox_.size(); ++i) {
      if (taken[i]) continue;
      const DeltaStat& s = prox_[i];
      int64_t rank;
      if (s.issued < kProximityProbe) {
        rank = 1000 + static_cast<int64_t>(prox_.size() - i);  // explore
      } else {
        int64_t rate_pct = 100 * static_cast<int64_t>(s.hits) / s.issued;
        if (rate_pct < kProximityMinRatePct) continue;
        rank = rate_pct;  // exploit
      }
      if (rank > best_rank) {
        best_rank = rank;
        best = i;
      }
    }
    if (best == prox_.size()) break;
    taken[best] = true;
    PageDelta delta = ProximityDelta(best);
    if (delta < 0 && static_cast<SwapSlot>(-delta) > ctx.slot) continue;
    SwapSlot slot = static_cast<SwapSlot>(ctx.slot + delta);
    if (slot == kInvalidSlot) continue;
    bool dup = false;
    for (SwapSlot s : out) {
      if (s == slot) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    out.push_back(slot);
    pending_.push_back(
        PendingEmit{slot, Origin{best, delta, /*proximity=*/true}});
  }
}

PageDelta OnlineDeltaPolicy::Observe(Pid pid, SwapSlot slot) {
  SwapSlot* prev = last_addr_.Find(pid);
  if (prev == nullptr) {
    last_addr_.Emplace(pid, slot);
    last_delta_.Emplace(pid, PageDelta{0});
    return 0;
  }
  SwapSlot prev_addr = *prev;
  PageDelta delta = static_cast<PageDelta>(slot - prev_addr);
  if (delta == 0) return 0;
  PageDelta& prev_delta = last_delta_[pid];
  if (prev_delta != 0) {
    // The stride context (region of the previous address, previous delta)
    // just produced `delta`.
    Train(StrideKey(prev_addr, prev_delta), delta);
  }
  // The correlation context (exact previous address) produced it too.
  Train(CorrKey(prev_addr), delta);
  *last_addr_.Find(pid) = slot;
  last_delta_[pid] = delta;
  return delta;
}

void OnlineDeltaPolicy::Train(uint64_t key, PageDelta next_delta) {
  Entry* entry = table_.Find(key);
  if (entry == nullptr) {
    if (table_.size() >= kOnlineDeltaMaxEntries) return;  // full: freeze
    entry = &table_[key];
  }
  // Existing candidate: bump its count.
  for (size_t i = 0; i < entry->used; ++i) {
    Candidate& c = entry->cands[i];
    if (c.delta == next_delta) {
      if (c.count < kCountCap) ++c.count;
      return;
    }
  }
  if (entry->used < kCandidatesPerEntry) {
    entry->cands[entry->used++] = Candidate{next_delta, 1, 0};
    return;
  }
  // Full: replace the lowest-scoring candidate (first one on ties, so the
  // choice is deterministic).
  size_t victim = 0;
  for (size_t i = 1; i < kCandidatesPerEntry; ++i) {
    if (Score(entry->cands[i]) < Score(entry->cands[victim])) victim = i;
  }
  entry->cands[victim] = Candidate{next_delta, 1, 0};
}

CandidateVec OnlineDeltaPolicy::OnFault(const FaultContext& ctx) {
  CandidateVec out;
  pending_.clear();
  if (ctx.slot == kInvalidSlot) return out;
  PageDelta delta = Observe(ctx.pid, ctx.slot);

  if (ctx.congestion.DataQueueDelayNs() >
      static_cast<double>(kCongestionBackoffNs)) {
    return out;  // keep learning, stop emitting
  }

  size_t depth = std::max<uint32_t>(1, kMaxDepth * depth_scale_pct_ / 100);
  depth = std::min(depth, ctx.budget_remaining);

  // Chain the best-scoring successor from either table while the score
  // clears the emission threshold. Stride wins score ties (it generalizes
  // across a region; correlation is one address's history).
  SwapSlot addr = ctx.slot;
  PageDelta cur_delta = delta;
  for (size_t i = 0; i < depth; ++i) {
    const Candidate* best = nullptr;
    uint64_t best_key = 0;
    for (int source = 0; source < 2; ++source) {
      if (source == 0 && cur_delta == 0) continue;
      const uint64_t key =
          source == 0 ? StrideKey(addr, cur_delta) : CorrKey(addr);
      Entry* entry = table_.Find(key);
      if (entry == nullptr) continue;
      for (size_t j = 0; j < entry->used; ++j) {
        const Candidate& c = entry->cands[j];
        if (best == nullptr || Score(c) > Score(*best)) {
          best = &c;
          best_key = key;
        }
      }
    }
    if (best == nullptr || Score(*best) < kEmitThreshold) break;
    SwapSlot next = static_cast<SwapSlot>(addr + best->delta);
    if (next == ctx.slot || next == kInvalidSlot) break;
    bool dup = false;
    for (SwapSlot s : out) {
      if (s == next) {
        dup = true;
        break;
      }
    }
    if (dup) break;  // the chain has cycled
    out.push_back(next);
    pending_.push_back(
        PendingEmit{next, Origin{best_key, best->delta, /*proximity=*/false}});
    cur_delta = best->delta;
    addr = next;
  }
  // Whatever depth the delta chains left unused goes to the proximity
  // bandit (on purely irregular streams that is the whole depth).
  if (out.size() < depth) {
    EmitProximity(ctx, depth - out.size(), out);
  }
  return out;
}

void OnlineDeltaPolicy::OnCacheAccess(Pid pid, SwapSlot slot) {
  // Hits feed the same history as misses (Leap hooks do_swap_page, so its
  // tracker sees both; the learned table gets the same visibility).
  Observe(pid, slot);
}

void OnlineDeltaPolicy::OnPrefetchIssued(Pid, SwapSlot slot, SimTimeNs) {
  for (const PendingEmit& p : pending_) {
    if (p.slot == slot) {
      outstanding_[slot] = p.origin;
      if (p.origin.proximity && p.origin.key < prox_.size()) {
        DeltaStat& s = prox_[p.origin.key];
        ++s.issued;
        if (s.issued >= kProximityStatCap) {
          // Halve both tallies: the rate survives, but new evidence now
          // moves it twice as fast (workload drift).
          s.issued /= 2;
          s.hits /= 2;
        }
      }
      break;
    }
  }
  ++epoch_issued_;
  if (epoch_issued_ >= kAccuracyWindow) {
    uint32_t acc_pct = 100 * epoch_hits_ / epoch_issued_;
    depth_scale_pct_ = acc_pct >= 60 ? 100 : acc_pct >= 30 ? 75 : 50;
    epoch_issued_ = 0;
    epoch_hits_ = 0;
  }
}

void OnlineDeltaPolicy::OnPrefetchComplete(Pid, SwapSlot, SimTimeNs latency) {
  // Shift-EWMA (alpha = 1/8), integer-only.
  latency_ewma_ns_ =
      latency_ewma_ns_ == 0
          ? latency
          : latency_ewma_ns_ - (latency_ewma_ns_ >> 3) + (latency >> 3);
}

void OnlineDeltaPolicy::Reward(SwapSlot slot, int32_t delta_weight) {
  Origin* origin = outstanding_.Find(slot);
  if (origin == nullptr) return;
  if (origin->proximity) {
    // The bandit arm only needs the hit/no-hit outcome; a drop leaves
    // `hits` alone and the arm's rate decays on its own.
    if (delta_weight > 0 && origin->key < prox_.size()) {
      ++prox_[origin->key].hits;
    }
  } else if (Entry* entry = table_.Find(origin->key)) {
    for (size_t i = 0; i < entry->used; ++i) {
      Candidate& c = entry->cands[i];
      if (c.delta == origin->delta) {
        c.weight = std::clamp(c.weight + delta_weight, -kWeightCap, kWeightCap);
        break;
      }
    }
  }
  outstanding_.Erase(slot);
}

void OnlineDeltaPolicy::OnPrefetchHit(Pid, SwapSlot slot,
                                      SimTimeNs timeliness) {
  ++epoch_hits_;
  // Just-in-time hits (cache residency comparable to the fetch latency)
  // are the 3PO timing sweet spot; very early fetches still hit but risk
  // pollution, so they train half as hard.
  bool just_in_time =
      latency_ewma_ns_ == 0 || timeliness <= 4 * latency_ewma_ns_;
  Reward(slot, just_in_time ? 2 : 1);
}

void OnlineDeltaPolicy::OnPrefetchDropped(Pid, SwapSlot slot) {
  Reward(slot, -1);
}

}  // namespace leap
