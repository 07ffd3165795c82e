// Online-learned prefetcher: a per-region delta-Markov table with
// perceptron-style confidence weights, trained continuously from the v2
// outcome-feedback stream (in the spirit of Hashemi et al., "Learning
// Memory Access Patterns", scaled down to integer table lookups).
//
// Structure: the access stream (misses AND cache hits, like Leap's
// tracker) is reduced per-process to page deltas, which train two tables:
//   stride context  (region, previous delta) -> successor deltas, which
//                   captures striding code (sequential, stride-N, nested
//                   loops with per-region strides);
//   correlation     exact previous address -> successor deltas, a Markov
//                   chain over addresses that captures recurring
//                   transitions with NO arithmetic structure - e.g. the
//                   hot-pair successions of a zipf-skewed key space.
// A third predictor handles streams with no repeatable delta context at
// all: a proximity bandit over small slot offsets from the demand page.
// Swap slots are assigned in eviction order, so nearby slots hold pages
// that were evicted together - under any recency-correlated reuse (e.g. a
// zipf-skewed key space) those neighbours are the likeliest next misses.
// The bandit probes each offset in +-1..+-kProximityMaxDelta a fixed
// number of times, then keeps emitting only the offsets whose observed
// hit rate clears a floor, ranked by rate - it learns *which* neighbours
// pay instead of blindly fanning out like next-N-line.
// Each table entry holds up to kCandidatesPerEntry successor deltas with a
// saturating occurrence count (the Markov part) and a signed feedback
// weight trained from OnPrefetchHit / OnPrefetchDropped (the perceptron
// part). On a fault the policy chains the best-scoring successor from
// either table while the score clears an emission threshold: a delta that
// recurred bootstraps exploration, a prefetch that hit reinforces it, one
// that dropped gates it off - so sustained emission needs sustained hits,
// trading coverage for accuracy on irregular patterns.
//
// Determinism rules for learned state: integer-only arithmetic, no RNG, no
// wall clock; every update is a pure function of the observed call
// sequence, so same-seed runs are bit-identical (pinned by
// policy_conformance_test).
#ifndef LEAP_SRC_PREFETCH_ONLINE_DELTA_H_
#define LEAP_SRC_PREFETCH_ONLINE_DELTA_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/container/flat_map.h"
#include "src/prefetch/prefetcher.h"

namespace leap {

// Table capacity in context entries (stride + correlation combined); when
// full, learning of new contexts stops (existing entries keep training).
inline constexpr size_t kOnlineDeltaMaxEntries = 32768;

// The policy has no knobs: its tuning constants live in online_delta.cc.
// The empty type stays because PolicyParams, MachineConfig and
// leapbench/workloads.cc name it.
struct OnlineDeltaConfig {};

class OnlineDeltaPolicy : public PrefetchPolicy {
 public:
  OnlineDeltaPolicy();

  CandidateVec OnFault(const FaultContext& ctx) override;
  void OnCacheAccess(Pid pid, SwapSlot slot) override;
  void OnPrefetchIssued(Pid pid, SwapSlot slot, SimTimeNs now) override;
  void OnPrefetchComplete(Pid pid, SwapSlot slot, SimTimeNs latency) override;
  void OnPrefetchHit(Pid pid, SwapSlot slot, SimTimeNs timeliness) override;
  void OnPrefetchDropped(Pid pid, SwapSlot slot) override;
  std::string_view name() const override { return "online-delta"; }

  size_t table_entries() const { return table_.size(); }
  uint32_t depth_scale_pct() const { return depth_scale_pct_; }
  // Issued/hit tallies per proximity arm (+1..+max, then -1..-max).
  std::vector<std::pair<uint32_t, uint32_t>> proximity_stats() const {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    out.reserve(prox_.size());
    for (const DeltaStat& s : prox_) out.emplace_back(s.issued, s.hits);
    return out;
  }

 private:
  static constexpr size_t kCandidatesPerEntry = 4;
  // Pages per region = 1 << kRegionShift; regions separate e.g. a
  // sequential heap scan from a scrambled hash table in the same process.
  static constexpr size_t kRegionShift = 8;
  // The proximity bandit's arms are the offsets +-1..+-kProximityMaxDelta.
  static constexpr uint32_t kProximityMaxDelta = 8;

  struct Candidate {
    PageDelta delta = 0;
    uint32_t count = 0;  // saturating Markov occurrence count
    int32_t weight = 0;  // trained hit(+)/drop(-) confidence
  };
  struct Entry {
    Candidate cands[kCandidatesPerEntry];
    size_t used = 0;
  };
  // Where a live prefetch came from, so its outcome can train exactly the
  // candidate that predicted it. `proximity` marks bandit emissions (key
  // then holds the offset-stat index, not a table key).
  struct Origin {
    uint64_t key = 0;
    PageDelta delta = 0;
    bool proximity = false;
  };
  // Per-offset bandit arm: issues observed vs issues that hit.
  struct DeltaStat {
    uint32_t issued = 0;
    uint32_t hits = 0;
  };

  // Both tables live in one FlatMap; the key mixers keep their context
  // spaces disjoint (FlatMap finalizes the hash further).
  uint64_t StrideKey(SwapSlot addr, PageDelta prev_delta) const {
    return (addr >> kRegionShift) * 0x9E3779B97F4A7C15ULL ^
           static_cast<uint64_t>(prev_delta);
  }
  uint64_t CorrKey(SwapSlot addr) const {
    return addr * 0xC2B2AE3D27D4EB4FULL ^ 0x5851F42D4C957F2DULL;
  }
  int32_t Score(const Candidate& c) const {
    return static_cast<int32_t>(c.count) + 2 * c.weight;
  }

  // Folds one observed access into the per-pid history and trains the
  // Markov side of the table. Returns the delta just observed (0 when
  // there was no usable history).
  PageDelta Observe(Pid pid, SwapSlot slot);
  void Train(uint64_t key, PageDelta next_delta);
  void Reward(SwapSlot slot, int32_t delta_weight);
  // The slot offset arm `index` stands for: +1..+max, then -1..-max.
  PageDelta ProximityDelta(size_t index) const {
    return index < kProximityMaxDelta
               ? static_cast<PageDelta>(index + 1)
               : -static_cast<PageDelta>(index - kProximityMaxDelta + 1);
  }
  // Appends up to `budget` proximity-bandit candidates to `out`.
  void EmitProximity(const FaultContext& ctx, size_t budget,
                     CandidateVec& out);

  FlatMap<uint64_t, Entry> table_;
  FlatMap<Pid, SwapSlot> last_addr_;
  FlatMap<Pid, PageDelta> last_delta_;
  struct PendingEmit {
    SwapSlot slot = kInvalidSlot;
    Origin origin;
  };
  // Candidates emitted by the last OnFault, awaiting Issued confirmation
  // (the machine reports issues synchronously after OnFault returns, so
  // this is cleared at the next fault).
  InlineVec<PendingEmit, kMaxPrefetchCandidates> pending_;
  // Issued-and-unresolved prefetches: slot -> predicting candidate.
  FlatMap<SwapSlot, Origin> outstanding_;
  // Proximity bandit arms: +1..+max, then -1..-max.
  std::array<DeltaStat, 2 * kProximityMaxDelta> prox_{};

  // Accuracy epoch (depth auto-tiering).
  uint32_t epoch_issued_ = 0;
  uint32_t epoch_hits_ = 0;
  uint32_t depth_scale_pct_ = 100;
  // Shift-EWMA of prefetch completion latency, used to classify hit
  // timeliness (just-in-time vs fetched-too-early).
  SimTimeNs latency_ewma_ns_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_PREFETCH_ONLINE_DELTA_H_
