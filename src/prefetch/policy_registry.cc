#include "src/prefetch/policy_registry.h"

#include "src/prefetch/leap_adapter.h"
#include "src/prefetch/next_n_line.h"
#include "src/prefetch/readahead.h"
#include "src/prefetch/stride.h"

namespace leap {

std::string_view PrefetchKindName(PrefetchKind kind) {
  switch (kind) {
    case PrefetchKind::kNone:
      return "none";
    case PrefetchKind::kNextNLine:
      return "next-n-line";
    case PrefetchKind::kStride:
      return "stride";
    case PrefetchKind::kReadAhead:
      return "read-ahead";
    case PrefetchKind::kGhb:
      return "ghb";
    case PrefetchKind::kLeap:
      return "leap";
    case PrefetchKind::kOnlineDelta:
      return "online-delta";
    case PrefetchKind::kProfileGuided:
      return "profile-guided";
  }
  return "none";
}

std::unique_ptr<PrefetchPolicy> MakePrefetchPolicy(PrefetchKind kind,
                                                   const PolicyParams& params) {
  switch (kind) {
    case PrefetchKind::kNone:
      return std::make_unique<NoPrefetcher>();
    case PrefetchKind::kNextNLine:
      return std::make_unique<NextNLinePrefetcher>(
          params.leap.max_prefetch_window);
    case PrefetchKind::kStride:
      return std::make_unique<StridePrefetcher>(
          params.leap.max_prefetch_window);
    case PrefetchKind::kReadAhead:
      return std::make_unique<ReadAheadPrefetcher>(
          2, params.leap.max_prefetch_window);
    case PrefetchKind::kGhb:
      return std::make_unique<GhbPrefetcher>(params.ghb);
    case PrefetchKind::kLeap:
      return std::make_unique<LeapAdapter>(params.leap);
    case PrefetchKind::kOnlineDelta:
      return std::make_unique<OnlineDeltaPolicy>();
    case PrefetchKind::kProfileGuided:
      return std::make_unique<ProfileGuidedPolicy>(params.profile_guided);
  }
  return std::make_unique<NoPrefetcher>();
}

}  // namespace leap
