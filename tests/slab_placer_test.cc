// Placement-policy unit tests: first-fit hotspots, power-of-two-choices
// balances (and beats first-fit on imbalance), striped round-robins with a
// per-host offset, and every policy respects exclusion, failure, and
// capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/cluster/slab_placer.h"

namespace leap {
namespace {

class PlacerFixture : public ::testing::Test {
 protected:
  void Build(size_t count, size_t capacity) {
    owned_.clear();
    nodes_.clear();
    for (uint32_t i = 0; i < count; ++i) {
      owned_.push_back(std::make_unique<RemoteAgent>(i, capacity));
      nodes_.push_back(owned_.back().get());
    }
  }

  // Places `slabs` single-replica slabs for `host`, committing each pick.
  std::vector<size_t> Place(SlabPlacer& placer, size_t slabs,
                            uint32_t host = 0) {
    Rng rng(17);
    for (uint64_t s = 0; s < slabs; ++s) {
      const uint32_t id = placer.Pick(nodes_, {}, host, s, rng);
      EXPECT_NE(id, SlabPlacer::kNoNode) << "slab " << s;
      if (id == SlabPlacer::kNoNode) {
        break;
      }
      EXPECT_TRUE(nodes_[id]->MapSlab());
    }
    std::vector<size_t> loads;
    for (const RemoteAgent* node : nodes_) {
      loads.push_back(node->mapped_slabs());
    }
    return loads;
  }

  static size_t Imbalance(const std::vector<size_t>& loads) {
    const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
    return *hi - *lo;
  }

  std::vector<std::unique_ptr<RemoteAgent>> owned_;
  std::vector<RemoteAgent*> nodes_;
};

TEST_F(PlacerFixture, FirstFitFillsLowNodesFirst) {
  Build(3, 2);
  FirstFitPlacer placer;
  Rng rng(1);
  std::vector<uint32_t> got;
  for (int i = 0; i < 6; ++i) {
    const uint32_t id = placer.Pick(nodes_, {}, 0, i, rng);
    got.push_back(id);
    ASSERT_TRUE(nodes_[id]->MapSlab());
  }
  EXPECT_EQ(got, (std::vector<uint32_t>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(placer.Pick(nodes_, {}, 0, 6, rng), SlabPlacer::kNoNode);
}

TEST_F(PlacerFixture, ExcludeAndFailureSkipNodes) {
  Build(3, 8);
  FirstFitPlacer placer;
  Rng rng(1);
  const uint32_t exclude0[] = {0};
  EXPECT_EQ(placer.Pick(nodes_, exclude0, 0, 0, rng), 1u);
  nodes_[1]->Fail();
  EXPECT_EQ(placer.Pick(nodes_, exclude0, 0, 0, rng), 2u);
  nodes_[1]->Recover();
  EXPECT_EQ(placer.Pick(nodes_, exclude0, 0, 0, rng), 1u);
}

TEST_F(PlacerFixture, PowerOfTwoBeatsFirstFitOnImbalance) {
  constexpr size_t kSlabs = 400;
  Build(8, 512);
  FirstFitPlacer first_fit;
  const auto ff_loads = Place(first_fit, kSlabs);

  Build(8, 512);
  PowerOfTwoPlacer po2;
  const auto po2_loads = Place(po2, kSlabs);

  // First-fit hotspots node 0 completely; two-choices stays near the mean
  // of 50 per node.
  EXPECT_EQ(Imbalance(ff_loads), kSlabs);
  EXPECT_LT(Imbalance(po2_loads), kSlabs / 4);
  EXPECT_LT(Imbalance(po2_loads), Imbalance(ff_loads));
}

// Reference for PowerOfTwoPlacer: the pool of eligible nodes as a vector,
// two distinct draws into it, the less loaded pick.
uint32_t PowerOfTwoReference(std::span<RemoteAgent* const> nodes,
                             std::span<const uint32_t> exclude, Rng& rng) {
  std::vector<RemoteAgent*> pool;
  for (RemoteAgent* node : nodes) {
    if (!node->failed() && node->FreeSlabs() > 0 &&
        std::find(exclude.begin(), exclude.end(), node->node_id()) ==
            exclude.end()) {
      pool.push_back(node);
    }
  }
  if (pool.empty()) {
    return SlabPlacer::kNoNode;
  }
  if (pool.size() == 1) {
    return pool.front()->node_id();
  }
  const size_t a = rng.NextU64(pool.size());
  size_t b = rng.NextU64(pool.size() - 1);
  if (b >= a) {
    ++b;
  }
  return pool[a]->mapped_slabs() <= pool[b]->mapped_slabs()
             ? pool[a]->node_id()
             : pool[b]->node_id();
}

// The placer picks the same node and makes the same RNG draws as the
// reference while nodes fail, recover, fill up and are excluded.
TEST_F(PlacerFixture, PowerOfTwoMatchesTheVectorReference) {
  Build(7, 24);
  PowerOfTwoPlacer placer;
  Rng rng(5);
  Rng reference_rng(5);
  Rng script(99);
  size_t placed = 0;
  for (uint64_t s = 0; s < 400; ++s) {
    RemoteAgent* flip = nodes_[script.NextU64(nodes_.size())];
    if (script.NextU64(4) == 0) {
      flip->failed() ? flip->Recover() : flip->Fail();
    }
    std::vector<uint32_t> exclude;
    for (size_t e = script.NextU64(3); e > 0; --e) {
      exclude.push_back(static_cast<uint32_t>(script.NextU64(nodes_.size())));
    }
    const uint32_t expected = PowerOfTwoReference(nodes_, exclude,
                                                  reference_rng);
    const uint32_t got = placer.Pick(nodes_, exclude, 0, s, rng);
    ASSERT_EQ(got, expected) << "slab " << s;
    if (got != SlabPlacer::kNoNode) {
      ASSERT_TRUE(nodes_[got]->MapSlab());
      ++placed;
    }
  }
  EXPECT_EQ(rng.NextU64(), reference_rng.NextU64());
  EXPECT_GT(placed, 100u);
}

TEST_F(PlacerFixture, StripedRoundRobinsWithHostOffset) {
  Build(4, 64);
  StripedPlacer placer;
  Rng rng(1);
  for (uint64_t s = 0; s < 8; ++s) {
    EXPECT_EQ(placer.Pick(nodes_, {}, /*host_id=*/0, s, rng), s % 4);
  }
  // A different host starts on a different node: its sequential slabs
  // stripe the same way, offset by the host id.
  EXPECT_EQ(placer.Pick(nodes_, {}, /*host_id=*/1, 0, rng), 1u);
  EXPECT_EQ(placer.Pick(nodes_, {}, /*host_id=*/3, 2, rng), 1u);
}

TEST_F(PlacerFixture, StripedProbesForwardPastFullNodes) {
  Build(3, 1);
  StripedPlacer placer;
  Rng rng(1);
  ASSERT_TRUE(nodes_[0]->MapSlab());  // node 0 full
  EXPECT_EQ(placer.Pick(nodes_, {}, 0, /*slab_id=*/0, rng), 1u);
}

TEST_F(PlacerFixture, ExhaustedPoolReturnsNoNode) {
  Build(2, 1);
  ASSERT_TRUE(nodes_[0]->MapSlab());
  ASSERT_TRUE(nodes_[1]->MapSlab());
  Rng rng(1);
  for (PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kPowerOfTwo,
        PlacementPolicy::kStriped}) {
    auto placer = MakeSlabPlacer(policy);
    EXPECT_EQ(placer->Pick(nodes_, {}, 0, 0, rng), SlabPlacer::kNoNode)
        << placer->name();
  }
}

TEST(SlabPlacerFactory, NamesMatchPolicies) {
  EXPECT_STREQ(MakeSlabPlacer(PlacementPolicy::kFirstFit)->name(),
               "first-fit");
  EXPECT_STREQ(MakeSlabPlacer(PlacementPolicy::kPowerOfTwo)->name(),
               "power-of-two-choices");
  EXPECT_STREQ(MakeSlabPlacer(PlacementPolicy::kStriped)->name(), "striped");
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kStriped), "striped");
}

}  // namespace
}  // namespace leap
