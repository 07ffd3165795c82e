// Table 1: qualitative comparison of prefetching techniques, augmented
// with this implementation's *measured* per-access computational overhead
// and memory footprint for the realtime candidates.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/prefetch/policy_registry.h"
#include "src/stats/table.h"

namespace leap {
namespace {

// Wall-clock cost of one OnFault decision, averaged over a mixed stream.
double MeasureNsPerDecision(PrefetchPolicy& policy) {
  Rng rng(7);
  // Mixed access stream: sequential, strided, and random segments.
  std::vector<SwapSlot> stream;
  SwapSlot cursor = 0;
  for (int seg = 0; seg < 3000; ++seg) {
    const int kind = seg % 3;
    const size_t len = 4 + rng.NextU64(12);
    for (size_t i = 0; i < len; ++i) {
      if (kind == 0) {
        ++cursor;
      } else if (kind == 1) {
        cursor += 7;
      } else {
        cursor = rng.NextU64(1 << 22);
      }
      stream.push_back(cursor);
    }
  }
  const auto start = std::chrono::steady_clock::now();
  size_t sink = 0;
  for (SwapSlot slot : stream) {
    sink += policy.OnFault({1, slot}).size();
  }
  const auto end = std::chrono::steady_clock::now();
  // Keep the optimizer honest.
  if (sink == 0xFFFFFFFF) {
    std::printf("!");
  }
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(stream.size());
}

void Run() {
  bench::PrintHeader(
      "Table 1 - prefetching technique comparison",
      "Leap: low compute, low memory, unmodified apps, HW/SW independent, "
      "temporal+spatial locality, high utilization - the only row with "
      "every property");

  TextTable props;
  props.SetHeader({"technique", "low-compute", "low-mem", "unmod-app",
                   "hw/sw-indep", "temporal", "spatial", "high-util"});
  props.AddRow({"Next-N-Line", "yes", "yes", "yes", "yes", "no", "yes",
                "no"});
  props.AddRow({"Stride", "yes", "yes", "yes", "yes", "no", "yes", "no"});
  props.AddRow({"GHB PC", "no", "no", "yes", "no", "yes", "yes", "yes"});
  props.AddRow({"Instruction prefetch", "no", "no", "no", "no", "yes", "yes",
                "yes"});
  props.AddRow({"Linux Read-Ahead", "yes", "yes", "yes", "yes", "yes", "yes",
                "no"});
  props.AddRow({"Leap", "yes", "yes", "yes", "yes", "yes", "yes", "yes"});
  props.AddRow({"Online-delta (learned)", "yes", "no", "yes", "yes", "yes",
                "yes", "yes"});
  props.AddRow({"Profile-guided", "yes", "yes", "yes", "yes", "no", "yes",
                "yes"});
  std::printf("%s\n", props.Render().c_str());

  std::printf("--- measured per-decision overhead (this implementation) "
              "---\n");
  // Every registered kind goes through the same harness; adding a policy
  // to the registry adds its row here with no bench edits.
  TextTable cost;
  cost.SetHeader({"technique", "ns/decision", "state bytes/process"});
  const GhbConfig ghb_config;
  const LeapParams params;
  for (PrefetchKind kind : kAllPrefetchKinds) {
    auto policy = MakePrefetchPolicy(kind);
    std::string state;
    switch (kind) {
      case PrefetchKind::kNone:
      case PrefetchKind::kNextNLine:
        state = "0";
        break;
      case PrefetchKind::kStride:
        state = std::to_string(sizeof(SwapSlot) * 2 + 24);
        break;
      case PrefetchKind::kReadAhead:
        state = std::to_string(sizeof(SwapSlot) + 24);
        break;
      case PrefetchKind::kGhb:
        state = std::to_string(ghb_config.buffer_size * 16 + 1024) + "+index";
        break;
      case PrefetchKind::kLeap:
        state =
            std::to_string(params.history_size * sizeof(PageDelta) + 64);
        break;
      case PrefetchKind::kOnlineDelta:
        state = "<=" + std::to_string(kOnlineDeltaMaxEntries * 48) + " shared";
        break;
      case PrefetchKind::kProfileGuided:
        state = "profile (offline) + 16/region";
        break;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", MeasureNsPerDecision(*policy));
    cost.AddRow({std::string(PrefetchKindName(kind)), buf, state});
  }
  std::printf("%s\n", cost.Render().c_str());
  std::printf("Leap state = Hsize(%zu) deltas x 8B + O(1) window state: "
              "O(1) memory per process, O(Hsize) worst-case time.\n",
              params.history_size);
}

}  // namespace
}  // namespace leap

int main() {
  leap::Run();
  return 0;
}
