// InlineVec: the fixed-capacity vector behind prefetch candidate lists and
// fault-path I/O scratch. Covers growth and shrinking, value-initialising
// resize, copies that carry exactly the live elements, both equality
// overloads, the overflow drop, and (in builds without NDEBUG) the poison
// written over unused slots.
#include "src/container/inline_vec.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/io_request.h"

namespace leap {
namespace {

using Vec = InlineVec<uint64_t, 4>;

TEST(InlineVec, StartsEmpty) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.full());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(Vec::capacity(), 4u);
  EXPECT_EQ(v.begin(), v.end());
}

TEST(InlineVec, PushBackAndPopBack) {
  Vec v;
  v.push_back(7);
  v.push_back(8);
  v.push_back(9);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 7u);
  EXPECT_EQ(v.back(), 9u);
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 8u);
  v.push_back(10);
  EXPECT_EQ(v, (std::vector<uint64_t>{7, 8, 10}));
  v.push_back(11);
  EXPECT_TRUE(v.full());
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(InlineVec, ResizeValueInitialisesGrownElements) {
  Vec v;
  v.push_back(5);
  v.push_back(6);
  v.push_back(7);
  v.resize(1);
  EXPECT_EQ(v, (std::vector<uint64_t>{5}));
  // The slots 6 and 7 occupied come back as zeros, not as old values.
  v.resize(4);
  EXPECT_EQ(v, (std::vector<uint64_t>{5, 0, 0, 0}));

  // A class element gets its default member initialisers.
  InlineVec<IoRequest, 2> requests;
  requests.push_back(PrefetchRead(3, 1, 100));
  requests.resize(2);
  EXPECT_EQ(requests[0].slot, 3u);
  EXPECT_EQ(requests[1].slot, kInvalidSlot);
  EXPECT_EQ(requests[1].cls, IoClass::kDemandRead);
  EXPECT_EQ(requests[1].bytes, kPageSize);
  EXPECT_EQ(requests[1].enqueue_ts, 0u);
}

TEST(InlineVec, CopyAndAssignmentCarryExactlyTheLiveElements) {
  Vec a;
  a.push_back(1);
  a.push_back(2);
  const Vec copy(a);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy, (std::vector<uint64_t>{1, 2}));

  Vec longer;
  for (uint64_t x : {9, 9, 9, 9}) {
    longer.push_back(x);
  }
  longer = a;  // shrinks to a's two elements
  EXPECT_EQ(longer, (std::vector<uint64_t>{1, 2}));
  longer.resize(3);
  EXPECT_EQ(longer[2], 0u);  // not the 9 the slot once held

  Vec empty;
  a = empty;
  EXPECT_TRUE(a.empty());
  a.push_back(3);
  const Vec& alias = a;
  a = alias;  // self-assignment keeps the contents
  EXPECT_EQ(a, (std::vector<uint64_t>{3}));
  EXPECT_EQ(copy.size(), 2u);  // copies are independent
}

TEST(InlineVec, EqualityBetweenVecsAndAgainstRanges) {
  Vec a, b;
  EXPECT_TRUE(a == b);
  a.push_back(1);
  EXPECT_FALSE(a == b);
  b.push_back(1);
  EXPECT_TRUE(a == b);
  b.pop_back();
  b.push_back(2);
  EXPECT_FALSE(a == b);  // same size, different element

  EXPECT_TRUE(a == (std::vector<uint64_t>{1}));
  EXPECT_FALSE(a == (std::vector<uint64_t>{1, 2}));  // size differs
  EXPECT_FALSE(a == (std::vector<uint64_t>{2}));     // element differs
  EXPECT_TRUE(Vec{} == std::vector<uint64_t>{});
}

// Overflow is a programming error: it asserts where asserts are compiled
// in, and otherwise drops the element and leaves the vector unchanged.
TEST(InlineVec, OverflowingPushBackIsDropped) {
  Vec v;
  for (uint64_t x : {1, 2, 3, 4}) {
    v.push_back(x);
  }
  ASSERT_TRUE(v.full());
  EXPECT_DEBUG_DEATH(v.push_back(5), "InlineVec overflow");
#ifdef NDEBUG
  EXPECT_EQ(v, (std::vector<uint64_t>{1, 2, 3, 4}));
#endif
}

#ifndef NDEBUG
// Unused slots hold the poison pattern, so an output that reads one moves
// instead of silently reusing what the slot last held.
bool SlotsPoisoned(const Vec& v, size_t from) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = from * sizeof(uint64_t); i < 4 * sizeof(uint64_t); ++i) {
    if (bytes[i] != kInlineVecPoison) {
      return false;
    }
  }
  return true;
}

TEST(InlineVec, UnusedSlotsArePoisonedInDebugBuilds) {
  Vec v;
  EXPECT_TRUE(SlotsPoisoned(v, 0));
  for (uint64_t x : {1, 2, 3, 4}) {
    v.push_back(x);
  }
  v.pop_back();
  EXPECT_TRUE(SlotsPoisoned(v, 3));
  v.resize(1);
  EXPECT_TRUE(SlotsPoisoned(v, 1));
  const Vec copy(v);
  EXPECT_TRUE(SlotsPoisoned(copy, 1));
  Vec full;
  for (uint64_t x : {5, 6, 7, 8}) {
    full.push_back(x);
  }
  full = v;
  EXPECT_TRUE(SlotsPoisoned(full, 1));
  v.clear();
  EXPECT_TRUE(SlotsPoisoned(v, 0));
}
#endif

}  // namespace
}  // namespace leap
