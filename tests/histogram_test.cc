#include "src/stats/histogram.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/rng.h"

namespace leap {
namespace {

TEST(Histogram, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Record(4300);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 4300.0);
  // Bucketed value must be within the sub-bucket relative error (~1.6%).
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 4300.0, 4300.0 * 0.02);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 64; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 63u);
  const uint64_t p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 30u);
  EXPECT_LE(p50, 33u);
}

TEST(Histogram, MeanIsExactRegardlessOfBucketing) {
  Histogram h;
  h.Record(1000000);
  h.Record(3000000);
  EXPECT_DOUBLE_EQ(h.Mean(), 2000000.0);
}

TEST(Histogram, PercentilesMatchSortedDataWithinError) {
  Rng rng(77);
  Histogram h;
  std::vector<uint64_t> values;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t v = 100 + rng.NextU64(1000000);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = static_cast<double>(
        values[static_cast<size_t>(q * (values.size() - 1))]);
    const double approx = static_cast<double>(h.Percentile(q));
    EXPECT_NEAR(approx, exact, exact * 0.03 + 2) << "q=" << q;
  }
}

TEST(Histogram, RecordNWeightsProperly) {
  Histogram h;
  h.RecordN(10, 99);
  h.RecordN(1000000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LT(h.Percentile(0.5), 20u);
  EXPECT_GT(h.Percentile(0.999), 900000u);
}

TEST(Histogram, FractionAtOrBelow) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v * 1000);
  }
  EXPECT_NEAR(h.FractionAtOrBelow(50 * 1000), 0.5, 0.03);
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(200 * 1000), 1.0);
  EXPECT_NEAR(h.FractionAtOrBelow(1), 0.0, 0.01);
}

TEST(Histogram, MergeCombinesPopulations) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 1000; ++i) {
    a.Record(100);
    b.Record(10000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 2000u);
  EXPECT_NEAR(a.Mean(), (100.0 + 10000.0) / 2.0, 1.0);
  EXPECT_LT(a.Percentile(0.25), 200u);
  EXPECT_GT(a.Percentile(0.75), 9000u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(Histogram, HugeValuesDoNotOverflow) {
  Histogram h;
  h.Record(~0ULL >> 1);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.Percentile(1.0), 1ULL << 60);
}

TEST(Histogram, MonotonePercentiles) {
  Rng rng(88);
  Histogram h;
  for (int i = 0; i < 10000; ++i) {
    h.Record(rng.NextU64(1 << 30));
  }
  uint64_t prev = 0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const uint64_t v = h.Percentile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

// --- Golden outputs -----------------------------------------------------------
//
// Buckets are allocated lazily up to the highest index recorded; these
// values pin every output to the figures of the eagerly allocated 4,096-
// bucket layout, across the full uint64 range. The geometry holds exactly
// the buckets a value can reach: UINT64_MAX lands in the last one.

TEST(Histogram, GeometryEndsAtTheMaxValuesBucket) {
  EXPECT_EQ(Histogram::BucketIndex(~0ULL), Histogram::kBucketCount - 1);
}

constexpr uint64_t kGoldenValues[] = {
    0,          1,          63,         64,
    65,         100,        1000,       4300,
    65535,      1000000,    123456789,  1ULL << 40,
    (1ULL << 62) + 12345,   1ULL << 63, ~0ULL};
constexpr double kGoldenQuantiles[] = {0.0,  0.1, 0.25, 0.5,
                                       0.75, 0.9, 0.99, 1.0};
constexpr uint64_t kGoldenCutoffs[] = {0,        64,         100,  5000,
                                       1ULL << 41, 1ULL << 63, ~0ULL};

struct Golden {
  uint64_t count;
  double mean;
  uint64_t percentiles[std::size(kGoldenQuantiles)];
  double fractions[std::size(kGoldenCutoffs)];
};

void ExpectGolden(const Histogram& h, const Golden& want) {
  EXPECT_EQ(h.count(), want.count);
  EXPECT_DOUBLE_EQ(h.Mean(), want.mean);
  for (size_t i = 0; i < std::size(kGoldenQuantiles); ++i) {
    EXPECT_EQ(h.Percentile(kGoldenQuantiles[i]), want.percentiles[i])
        << "q=" << kGoldenQuantiles[i];
  }
  for (size_t i = 0; i < std::size(kGoldenCutoffs); ++i) {
    EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(kGoldenCutoffs[i]),
                     want.fractions[i])
        << "value=" << kGoldenCutoffs[i];
  }
}

Histogram GoldenFull() {
  Histogram h;
  for (const uint64_t v : kGoldenValues) {
    h.Record(v);
  }
  return h;
}

// Only the first two buckets' worth of range: the short side of a merge.
Histogram GoldenShort() {
  Histogram h;
  h.RecordN(5, 3);
  h.Record(70);
  return h;
}

constexpr Golden kFull = {
    15,
    2.1521202152418588e+18,
    {0, 1, 64, 4320, 123207680, 9295429630892703744ULL,
     18374686479671623680ULL, 18374686479671623680ULL},
    {0.066666666666666666, 0.26666666666666666, 0.40000000000000002,
     0.53333333333333333, 0.80000000000000004, 0.93333333333333335, 1.0}};

constexpr Golden kShort = {
    4, 21.25, {5, 5, 5, 5, 5, 70, 70, 70}, {0, 0.75, 1, 1, 1, 1, 1}};

constexpr Golden kMerged = {
    19,
    1.6990422751909412e+18,
    {0, 1, 5, 100, 1003520, 4647714815446351872ULL, 18374686479671623680ULL,
     18374686479671623680ULL},
    {0.052631578947368418, 0.36842105263157893, 0.52631578947368418,
     0.63157894736842102, 0.84210526315789469, 0.94736842105263153, 1.0}};

TEST(Histogram, GoldenFullRange) {
  const Histogram h = GoldenFull();
  ExpectGolden(h, kFull);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), ~0ULL);
}

TEST(Histogram, GoldenShortRange) { ExpectGolden(GoldenShort(), kShort); }

TEST(Histogram, GoldenMergeShortIntoLong) {
  Histogram h = GoldenFull();
  h.Merge(GoldenShort());
  ExpectGolden(h, kMerged);
}

TEST(Histogram, GoldenMergeLongIntoShort) {
  Histogram h = GoldenShort();
  h.Merge(GoldenFull());
  ExpectGolden(h, kMerged);
}

TEST(Histogram, ResetThenReuseMatchesFresh) {
  Histogram h = GoldenFull();
  h.Reset();
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(~0ULL), 0.0);
  h.RecordN(5, 3);
  h.Record(70);
  ExpectGolden(h, kShort);
}

// --- 32-bit buckets -----------------------------------------------------------
//
// A bucket holds at most kBucketMax samples; a record or merge that would
// pass it throws and changes nothing.

TEST(Histogram, RecordPastTheBucketLimitThrows) {
  Histogram h;
  h.RecordN(1000, UINT32_MAX);  // exactly full is fine
  EXPECT_EQ(h.count(), uint64_t{UINT32_MAX});
  EXPECT_THROW(h.Record(1000), std::overflow_error);
  EXPECT_THROW(h.RecordN(1000, 1ULL << 40), std::overflow_error);
  EXPECT_EQ(h.count(), uint64_t{UINT32_MAX});
  EXPECT_EQ(h.Max(), 1000u);
  h.Record(7);  // other buckets still take samples
  EXPECT_EQ(h.count(), uint64_t{UINT32_MAX} + 1);
  Histogram fresh;
  EXPECT_THROW(fresh.RecordN(5, 1ULL << 32), std::overflow_error);
  EXPECT_EQ(fresh.count(), 0u);
}

TEST(Histogram, MergeThatWouldOverflowABucketThrows) {
  Histogram full;
  full.RecordN(1000, UINT32_MAX);
  Histogram one;
  one.Record(1000);
  one.Record(1ULL << 50);  // past `full`'s buckets: the merge must grow
  EXPECT_THROW(full.Merge(one), std::overflow_error);
  EXPECT_EQ(full.count(), uint64_t{UINT32_MAX});
  EXPECT_EQ(full.Max(), 1000u);
  EXPECT_DOUBLE_EQ(full.FractionAtOrBelow(999), 0.0);
  EXPECT_THROW(one.Merge(full), std::overflow_error);
  EXPECT_EQ(one.count(), 2u);
  // A merge into a different bucket is fine.
  Histogram other;
  other.RecordN(5, UINT32_MAX);
  full.Merge(other);
  EXPECT_EQ(full.count(), 2 * uint64_t{UINT32_MAX});
}

// The same geometry with u64 buckets allocated up front, kept the slow,
// obvious way: the reference the 32-bit, group-grown buckets must match.
struct WideReference {
  std::vector<uint64_t> buckets =
      std::vector<uint64_t>(Histogram::kBucketCount, 0);
  uint64_t count = 0;
  double sum = 0.0;
  uint64_t min = ~0ULL;
  uint64_t max = 0;

  static uint64_t Midpoint(size_t index) {
    if (index < Histogram::kSubBucketCount) {
      return index;
    }
    const size_t group = index / Histogram::kSubBucketCount;
    const uint64_t sub =
        index % Histogram::kSubBucketCount + Histogram::kSubBucketCount;
    const int shift = static_cast<int>(group) - 1;
    return (sub << shift) + (1ULL << shift) / 2;
  }
  void RecordN(uint64_t value, uint64_t n) {
    buckets[Histogram::BucketIndex(value)] += n;
    count += n;
    sum += static_cast<double>(value) * static_cast<double>(n);
    min = std::min(min, value);
    max = std::max(max, value);
  }
  void Merge(const WideReference& other) {
    for (size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  uint64_t Percentile(double q) const {
    const uint64_t target = std::max<uint64_t>(
        1, static_cast<uint64_t>(q * static_cast<double>(count) + 0.5));
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen >= target) {
        return std::clamp(Midpoint(i), min, max);
      }
    }
    return max;
  }
  double FractionAtOrBelow(uint64_t value) const {
    uint64_t seen = 0;
    for (size_t i = 0; i <= Histogram::BucketIndex(value); ++i) {
      seen += buckets[i];
    }
    return static_cast<double>(seen) / static_cast<double>(count);
  }
};

void ExpectMatchesWide(const Histogram& h, const WideReference& ref,
                       const std::vector<uint64_t>& values) {
  ASSERT_EQ(h.count(), ref.count);
  EXPECT_EQ(h.Mean(), ref.sum / static_cast<double>(ref.count));
  EXPECT_EQ(h.Min(), ref.min);
  EXPECT_EQ(h.Max(), ref.max);
  for (const double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                         0.999, 1.0}) {
    EXPECT_EQ(h.Percentile(q), ref.Percentile(q)) << "q=" << q;
  }
  for (const uint64_t v : values) {
    EXPECT_EQ(h.FractionAtOrBelow(v), ref.FractionAtOrBelow(v)) << v;
  }
}

TEST(Histogram, MatchesAWideReferenceAcrossTheRange) {
  std::vector<uint64_t> values = {0, 63, 64, 1ULL << 63, ~0ULL};
  Rng rng(4242);
  for (int i = 0; i < 2000; ++i) {
    const auto bits = static_cast<int>(rng.NextU64(65));
    values.push_back(bits == 0 ? 0 : rng.NextU64() >> (64 - bits));
  }
  Histogram a;
  Histogram b;
  WideReference ref_a;
  WideReference ref_b;
  for (size_t i = 0; i < values.size(); ++i) {
    // Mostly single samples, some heavy: the total passes 2^32.
    const uint64_t n = i % 7 == 0 ? rng.NextU64(1ULL << 25) + 1 : 1;
    Histogram& h = i % 2 == 0 ? a : b;
    WideReference& ref = i % 2 == 0 ? ref_a : ref_b;
    h.RecordN(values[i], n);
    ref.RecordN(values[i], n);
  }
  ExpectMatchesWide(a, ref_a, values);
  ExpectMatchesWide(b, ref_b, values);
  Histogram merged = a;
  merged.Merge(b);
  WideReference ref_merged = ref_a;
  ref_merged.Merge(ref_b);
  ExpectMatchesWide(merged, ref_merged, values);
  EXPECT_GT(merged.count(), 1ULL << 32);  // no single bucket is near it
}

}  // namespace
}  // namespace leap
