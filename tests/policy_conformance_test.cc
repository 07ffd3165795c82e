// Cross-policy conformance suite: the PrefetchPolicy v2 contract, checked
// for every kind in the registry (parameterized, so a policy added to
// kAllPrefetchKinds is covered with no test edits):
//
//  1. Feedback balance: every OnPrefetchIssued is eventually matched by
//     exactly one OnPrefetchHit or OnPrefetchDropped (the unresolved
//     remainder must equal the cache's unconsumed-prefetch count at the
//     end of the run), Complete fires once per Issued, and a Hit/Dropped
//     never arrives for a slot with no outstanding issue.
//  2. OnFault never returns the demand slot itself.
//  3. name() matches the registry name and views static storage (repeated
//     calls return the same pointer and never allocate).
//  4. A default-constructed FaultContext (kInvalidSlot, zeroed congestion
//     signals) and feedback for never-issued slots must not crash.
//  5. Same seed => bit-identical candidate streams across two full runs.
//  6. Steady-state OnFault is allocation-free for the non-learned kinds
//     (checked with the same global operator-new hook determinism_test
//     uses; the learned kinds may grow their tables).
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/prefetch/policy_registry.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/workload/patterns.h"

// --- global allocation hook -------------------------------------------------

namespace {
size_t g_alloc_count = 0;
}  // namespace

void* operator new(size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace leap {
namespace {

constexpr size_t kFootprint = 4096;
constexpr size_t kFrames = 1 << 14;
constexpr size_t kAccesses = 20000;

// Registry params that make every kind actually emit: profile-guided gets
// a synthetic stride-1 profile covering the whole footprint's regions.
PolicyParams ActiveParams() {
  PolicyParams params;
  PrefetchProfile profile;
  profile.region_shift = 8;
  for (uint64_t region = 0; region < (kFrames >> 8); ++region) {
    profile.hints.push_back(ProfileHint{region, /*stride=*/1, /*depth=*/4,
                                        /*share_pct=*/90});
  }
  params.profile_guided.profile = profile;
  return params;
}

// Forwarding wrapper that audits the feedback contract around any policy.
class AuditPolicy : public PrefetchPolicy {
 public:
  explicit AuditPolicy(PrefetchPolicy* inner) : inner_(inner) {}

  CandidateVec OnFault(const FaultContext& ctx) override {
    CandidateVec out = inner_->OnFault(ctx);
    for (SwapSlot slot : out) {
      if (slot == ctx.slot) {
        ++demand_slot_emissions;
      }
      candidate_stream.push_back(slot);
    }
    // Batch separator so two runs can't equalize by re-chunking.
    candidate_stream.push_back(kInvalidSlot);
    return out;
  }
  void OnCacheAccess(Pid pid, SwapSlot slot) override {
    inner_->OnCacheAccess(pid, slot);
  }
  void OnPrefetchIssued(Pid pid, SwapSlot slot, SimTimeNs now) override {
    ++balance[slot];
    ++issued;
    inner_->OnPrefetchIssued(pid, slot, now);
  }
  void OnPrefetchComplete(Pid pid, SwapSlot slot, SimTimeNs latency) override {
    ++completes;
    inner_->OnPrefetchComplete(pid, slot, latency);
  }
  void OnPrefetchHit(Pid pid, SwapSlot slot, SimTimeNs timeliness) override {
    Resolve(slot);
    ++hits;
    inner_->OnPrefetchHit(pid, slot, timeliness);
  }
  void OnPrefetchDropped(Pid pid, SwapSlot slot) override {
    Resolve(slot);
    ++drops;
    inner_->OnPrefetchDropped(pid, slot);
  }
  std::string_view name() const override { return inner_->name(); }

  uint64_t issued = 0;
  uint64_t completes = 0;
  uint64_t hits = 0;
  uint64_t drops = 0;
  uint64_t demand_slot_emissions = 0;
  uint64_t resolutions_without_issue = 0;
  std::map<SwapSlot, int64_t> balance;  // issued minus resolved, per slot
  std::vector<SwapSlot> candidate_stream;

 private:
  void Resolve(SwapSlot slot) {
    auto it = balance.find(slot);
    if (it == balance.end() || it->second <= 0) {
      ++resolutions_without_issue;
      return;
    }
    --it->second;
  }

  PrefetchPolicy* inner_;
};

struct AuditedRun {
  AuditPolicy audit{nullptr};
  size_t unconsumed_at_end = 0;
  uint64_t faults = 0;
};

// One full machine run (warm-up, strided phase, scrambled phase) with the
// kind's policy wrapped in an audit shim injected through MachineEnv.
void RunAudited(PrefetchKind kind, uint64_t seed, AuditedRun& out) {
  auto inner = MakePrefetchPolicy(kind, ActiveParams());
  out.audit = AuditPolicy(inner.get());

  MachineEnv env;
  env.policy = &out.audit;
  Machine machine(DefaultVmmConfig(kind, kFrames, seed), env);
  const Pid pid = machine.CreateProcess(kFootprint / 2);
  const SimTimeNs warm_end = WarmUp(machine, pid, kFootprint);

  RunConfig rc;
  rc.total_accesses = kAccesses;
  rc.start_time_ns = warm_end + 10 * kNsPerMs;
  StrideStream strided(kFootprint, 10, 750);
  RunResult rr = RunApp(machine, pid, strided, rc);

  rc.start_time_ns = rr.completion_ns + kNsPerMs;
  ScrambledZipfStream scrambled(kFootprint, 0.99, 750);
  RunApp(machine, pid, scrambled, rc);

  out.unconsumed_at_end = machine.unconsumed_prefetched();
  out.faults = machine.counters().Get(counter::kPageFaults);
}

class PolicyConformance : public ::testing::TestWithParam<PrefetchKind> {};

TEST_P(PolicyConformance, FeedbackBalanced) {
  AuditedRun run;
  RunAudited(GetParam(), /*seed=*/42, run);
  const AuditPolicy& a = run.audit;

  EXPECT_GT(run.faults, 0u);
  EXPECT_EQ(a.demand_slot_emissions, 0u)
      << "OnFault returned the demand slot itself";
  EXPECT_EQ(a.resolutions_without_issue, 0u)
      << "Hit/Dropped arrived for a slot with no outstanding issue";
  EXPECT_EQ(a.completes, a.issued)
      << "Complete must fire exactly once per Issued";
  // Exactly-one rule: everything issued is resolved except what is still
  // sitting unconsumed in the cache when the run ends.
  EXPECT_EQ(a.issued - a.hits - a.drops, run.unconsumed_at_end);
  for (const auto& [slot, bal] : a.balance) {
    EXPECT_GE(bal, 0) << "slot " << slot << " over-resolved";
  }
}

TEST_P(PolicyConformance, NameMatchesRegistryAndIsHeapFree) {
  auto policy = MakePrefetchPolicy(GetParam(), ActiveParams());
  EXPECT_EQ(policy->name(), PrefetchKindName(GetParam()));

  const char* first = policy->name().data();
  const size_t before = g_alloc_count;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy->name().data(), first)
        << "name() must view static storage";
  }
  EXPECT_EQ(g_alloc_count, before) << "name() allocated";
}

TEST_P(PolicyConformance, NullContextAndStrayFeedbackAreSafe) {
  auto policy = MakePrefetchPolicy(GetParam(), ActiveParams());
  // Default context: kInvalidSlot demand, zeroed congestion signals.
  CandidateVec out = policy->OnFault(FaultContext{});
  for (SwapSlot slot : out) {
    EXPECT_NE(slot, kInvalidSlot);
  }
  // Feedback for slots this policy never emitted must be ignored, not
  // crash (the machine never does this, but the contract is defensive).
  policy->OnPrefetchIssued(1, 999, 0);
  policy->OnPrefetchComplete(1, 999, 5000);
  policy->OnPrefetchHit(1, 999, 100);
  policy->OnPrefetchDropped(1, 998);
  policy->OnCacheAccess(1, 7);
  (void)policy->OnFault(FaultContext{1, 5});
}

TEST_P(PolicyConformance, SameSeedBitIdenticalCandidateStream) {
  AuditedRun first;
  AuditedRun second;
  RunAudited(GetParam(), /*seed=*/42, first);
  RunAudited(GetParam(), /*seed=*/42, second);
  ASSERT_EQ(first.audit.candidate_stream.size(),
            second.audit.candidate_stream.size());
  EXPECT_EQ(first.audit.candidate_stream, second.audit.candidate_stream);
  EXPECT_EQ(first.audit.issued, second.audit.issued);
  EXPECT_EQ(first.audit.hits, second.audit.hits);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PolicyConformance, ::testing::ValuesIn(kAllPrefetchKinds),
    [](const ::testing::TestParamInfo<PrefetchKind>& info) {
      std::string name(PrefetchKindName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- zero-allocation steady state (non-learned kinds) -----------------------

TEST(PolicyZeroAlloc, NonLearnedOnFaultIsAllocationFree) {
  for (PrefetchKind kind :
       {PrefetchKind::kNone, PrefetchKind::kNextNLine, PrefetchKind::kStride,
        PrefetchKind::kReadAhead, PrefetchKind::kGhb, PrefetchKind::kLeap}) {
    auto policy = MakePrefetchPolicy(kind);
    // Warm phase: a monotone cursor with a periodic delta pattern, so the
    // delta-signature space (what GHB indexes) is finite and fully seen
    // before the measured phase, while still mixing stride lengths.
    static constexpr SwapSlot kDeltas[16] = {1, 3, 1, 7, 2, 1, 5, 1,
                                             3, 1, 9, 2, 1, 4, 1, 6};
    SwapSlot cursor = 0;
    size_t tick = 0;
    auto next_slot = [&]() -> SwapSlot {
      cursor += kDeltas[tick++ & 15];
      return cursor;
    };
    for (size_t i = 0; i < 4 * kFootprint; ++i) {
      (void)policy->OnFault(FaultContext{1, next_slot()});
    }
    size_t allocs = 0;
    for (size_t i = 0; i < kFootprint; ++i) {
      const FaultContext ctx{1, next_slot()};
      const size_t before = g_alloc_count;
      (void)policy->OnFault(ctx);
      allocs += g_alloc_count - before;
    }
    EXPECT_EQ(allocs, 0u) << PrefetchKindName(kind)
                          << ": steady-state OnFault allocated";
  }
}

}  // namespace
}  // namespace leap
