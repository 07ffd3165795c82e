#include "src/cluster/slab_placer.h"

#include <algorithm>

namespace leap {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstFit: return "first-fit";
    case PlacementPolicy::kPowerOfTwo: return "power-of-two-choices";
    case PlacementPolicy::kStriped: return "striped";
  }
  return "unknown";
}

bool SlabPlacer::Eligible(const RemoteAgent* node,
                          std::span<const uint32_t> exclude) {
  if (node == nullptr || node->failed() || node->FreeSlabs() == 0) {
    return false;
  }
  return std::find(exclude.begin(), exclude.end(), node->node_id()) ==
         exclude.end();
}

uint32_t FirstFitPlacer::Pick(std::span<RemoteAgent* const> nodes,
                              std::span<const uint32_t> exclude,
                              uint32_t /*host_id*/, uint64_t /*slab_id*/,
                              Rng& /*rng*/) {
  for (RemoteAgent* node : nodes) {
    if (Eligible(node, exclude)) {
      return node->node_id();
    }
  }
  return kNoNode;
}

uint32_t PowerOfTwoPlacer::Pick(std::span<RemoteAgent* const> nodes,
                                std::span<const uint32_t> exclude,
                                uint32_t /*host_id*/, uint64_t /*slab_id*/,
                                Rng& rng) {
  // Eligibility is counted, then walked to by rank: no per-slab vector.
  const size_t eligible = static_cast<size_t>(
      std::count_if(nodes.begin(), nodes.end(), [&](const RemoteAgent* node) {
        return Eligible(node, exclude);
      }));
  if (eligible == 0) {
    return kNoNode;
  }
  // Power of two choices: sample two distinct candidates, keep the less
  // loaded one. A lone candidate takes no draws.
  size_t a = 0;
  size_t b = 0;
  if (eligible > 1) {
    a = rng.NextU64(eligible);
    b = rng.NextU64(eligible - 1);
    if (b >= a) {
      ++b;
    }
  }
  RemoteAgent* first = nullptr;
  RemoteAgent* second = nullptr;
  size_t rank = 0;
  for (RemoteAgent* node : nodes) {
    if (!Eligible(node, exclude)) {
      continue;
    }
    if (rank == a) {
      first = node;
    }
    if (rank == b) {
      second = node;
    }
    ++rank;
  }
  return first->mapped_slabs() <= second->mapped_slabs() ? first->node_id()
                                                         : second->node_id();
}

uint32_t StripedPlacer::Pick(std::span<RemoteAgent* const> nodes,
                             std::span<const uint32_t> exclude,
                             uint32_t host_id, uint64_t slab_id,
                             Rng& /*rng*/) {
  if (nodes.empty()) {
    return kNoNode;
  }
  // Host-offset round-robin; probe forward when the natural stripe target
  // has no capacity.
  const size_t start =
      (static_cast<size_t>(host_id) + static_cast<size_t>(slab_id)) %
      nodes.size();
  for (size_t i = 0; i < nodes.size(); ++i) {
    RemoteAgent* node = nodes[(start + i) % nodes.size()];
    if (Eligible(node, exclude)) {
      return node->node_id();
    }
  }
  return kNoNode;
}

std::unique_ptr<SlabPlacer> MakeSlabPlacer(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstFit:
      return std::make_unique<FirstFitPlacer>();
    case PlacementPolicy::kPowerOfTwo:
      return std::make_unique<PowerOfTwoPlacer>();
    case PlacementPolicy::kStriped:
      return std::make_unique<StripedPlacer>();
  }
  return std::make_unique<PowerOfTwoPlacer>();
}

}  // namespace leap
