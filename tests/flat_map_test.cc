// FlatMap: insert/erase/take/rehash behavior, backward-shift deletion,
// iteration, move-only values, and deterministic iteration order.
#include "src/container/flat_map.h"

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace leap {
namespace {

TEST(FlatMap, StartsEmpty) {
  FlatMap<uint64_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_FALSE(map.Erase(42));
}

TEST(FlatMap, InsertFindErase) {
  FlatMap<uint64_t, int> map;
  map[10] = 1;
  map[20] = 2;
  ASSERT_NE(map.Find(10), nullptr);
  EXPECT_EQ(*map.Find(10), 1);
  EXPECT_EQ(*map.Find(20), 2);
  EXPECT_EQ(map.Find(30), nullptr);
  EXPECT_EQ(map.size(), 2u);

  EXPECT_TRUE(map.Erase(10));
  EXPECT_EQ(map.Find(10), nullptr);
  EXPECT_FALSE(map.Erase(10));
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<int, int> map;
  EXPECT_EQ(map[7], 0);
  map[7] += 5;
  EXPECT_EQ(map[7], 5);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, EmplaceReportsExisting) {
  FlatMap<int, int> map;
  auto [first, inserted1] = map.Emplace(1, 100);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(*first, 100);
  auto [second, inserted2] = map.Emplace(1, 999);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*second, 100) << "Emplace must not overwrite an existing value";
}

TEST(FlatMap, SurvivesRehashGrowth) {
  FlatMap<uint64_t, uint64_t> map;
  constexpr uint64_t kN = 10000;
  for (uint64_t i = 0; i < kN; ++i) {
    map[i * 7919] = i;  // non-trivial key spread
  }
  EXPECT_EQ(map.size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    const uint64_t* v = map.Find(i * 7919);
    ASSERT_NE(v, nullptr) << "lost key " << i * 7919 << " across rehash";
    EXPECT_EQ(*v, i);
  }
}

TEST(FlatMap, EraseKeepsProbeChainsIntact) {
  // Sequential keys stress robin-hood displacement + backward shift: every
  // other key is erased, the survivors must all remain findable.
  FlatMap<uint64_t, uint64_t> map;
  constexpr uint64_t kN = 4096;
  for (uint64_t i = 0; i < kN; ++i) {
    map[i] = i;
  }
  for (uint64_t i = 0; i < kN; i += 2) {
    EXPECT_TRUE(map.Erase(i));
  }
  EXPECT_EQ(map.size(), kN / 2);
  for (uint64_t i = 0; i < kN; ++i) {
    const uint64_t* v = map.Find(i);
    if (i % 2 == 0) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr) << "backward shift lost key " << i;
      EXPECT_EQ(*v, i);
    }
  }
}

TEST(FlatMap, SlotReuseAfterEraseDoesNotGrow) {
  FlatMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 64; ++i) {
    map[i] = i;
  }
  const size_t capacity = map.capacity();
  // Steady-state churn at constant size: capacity must not change (erased
  // slots are reused; no tombstone accumulation in robin-hood hashing).
  for (uint64_t round = 0; round < 20000; ++round) {
    EXPECT_TRUE(map.Erase(round % 64));
    map[round % 64] = round;
  }
  EXPECT_EQ(map.size(), 64u);
  EXPECT_EQ(map.capacity(), capacity) << "churn at constant size grew table";
}

TEST(FlatMap, IterationVisitsEveryEntryExactlyOnce) {
  FlatMap<int, int> map;
  for (int i = 0; i < 100; ++i) {
    map[i] = i * 2;
  }
  std::set<int> seen;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(value, key * 2);
    EXPECT_TRUE(seen.insert(key).second) << "key visited twice";
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(FlatMap, IterationOrderIsDeterministic) {
  auto build = [] {
    FlatMap<uint64_t, int> map;
    for (uint64_t i = 0; i < 500; ++i) {
      map[i * 31] = static_cast<int>(i);
    }
    for (uint64_t i = 0; i < 500; i += 3) {
      map.Erase(i * 31);
    }
    return map;
  };
  const auto a = build();
  const auto b = build();
  std::vector<uint64_t> keys_a;
  std::vector<uint64_t> keys_b;
  for (const auto& [k, v] : a) {
    keys_a.push_back(k);
  }
  for (const auto& [k, v] : b) {
    keys_b.push_back(k);
  }
  EXPECT_EQ(keys_a, keys_b);
}

TEST(FlatMap, MoveOnlyValues) {
  FlatMap<int, std::unique_ptr<std::string>> map;
  map[1] = std::make_unique<std::string>("one");
  map[2] = std::make_unique<std::string>("two");
  for (int i = 3; i < 200; ++i) {
    map[i] = std::make_unique<std::string>(std::to_string(i));
  }
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(**map.Find(1), "one");
  EXPECT_TRUE(map.Erase(2));
  EXPECT_EQ(map.Find(2), nullptr);
  EXPECT_EQ(**map.Find(100), "100");
}

TEST(FlatMap, ClearKeepsCapacityAndWorks) {
  FlatMap<int, int> map;
  for (int i = 0; i < 1000; ++i) {
    map[i] = i;
  }
  const size_t capacity = map.capacity();
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.Find(5), nullptr);
  map[5] = 55;
  EXPECT_EQ(*map.Find(5), 55);
}

TEST(FlatMap, ReservePreventsRehash) {
  FlatMap<int, int> map;
  map.Reserve(1000);
  const size_t capacity = map.capacity();
  for (int i = 0; i < 1000; ++i) {
    map[i] = i;
  }
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.size(), 1000u);
}

}  // namespace
}  // namespace leap
