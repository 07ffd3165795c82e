// Log-bucketed latency histogram (HdrHistogram-style).
//
// Records any uint64 value with bounded relative error (kSubBucketBits
// linear sub-buckets per power of two keep it under ~1.6%), answers
// percentile queries, and accumulates count/sum for means. Used for every
// latency series reported by the benchmark harness.
//
// Buckets are allocated only up to the 64-bucket group holding the highest
// index recorded, one group at a time: a cluster run keeps thousands of
// histograms, most of which see a few small values, and a bucket past the
// end reads as empty. The geometry is fixed, so any two histograms merge.
//
// Buckets are u32: one bucket holds at most 2^32-1 samples, and RecordN and
// Merge throw std::overflow_error (changing nothing) rather than wrap. The
// totals (count, sum) stay 64-bit. The largest committed run, fig18's full
// geometry, records about 8.2M samples in total (4096 hosts x 2000
// accesses at its top scale), so even a histogram merged over every host
// stays more than 500x below the 2^32 limit of one bucket.
#ifndef LEAP_SRC_STATS_HISTOGRAM_H_
#define LEAP_SRC_STATS_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace leap {

class Histogram {
 public:
  // Inline: every simulated access records into one or more histograms.
  void Record(uint64_t value) { RecordN(value, 1); }
  // Records `count` copies of `value`; throws std::overflow_error if the
  // bucket would pass kBucketMax.
  void RecordN(uint64_t value, uint64_t count) {
    if (count == 0) {
      return;
    }
    const size_t idx = BucketIndex(value);
    if (idx >= buckets_.size()) {
      Grow(idx + 1);
    }
    if (count > kBucketMax - buckets_[idx]) {
      throw std::overflow_error("leap::Histogram: bucket count overflow");
    }
    buckets_[idx] += static_cast<uint32_t>(count);
    count_ += count;
    sum_ += static_cast<double>(value) * static_cast<double>(count);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  uint64_t count() const { return count_; }
  double Sum() const { return sum_; }
  double Mean() const;
  uint64_t Min() const { return count_ == 0 ? 0 : min_; }
  uint64_t Max() const { return max_; }

  // Value at quantile q in [0, 1]. Returns the representative (midpoint)
  // value of the bucket containing the q-th sample.
  uint64_t Percentile(double q) const;

  // Fraction of recorded values that are <= value.
  double FractionAtOrBelow(uint64_t value) const;

  // Adds `other`'s samples; throws std::overflow_error, before changing
  // anything, if a bucket would pass kBucketMax.
  void Merge(const Histogram& other);
  void Reset();

  static constexpr int kSubBucketBits = 6;
  static constexpr uint64_t kSubBucketCount = 1ULL << kSubBucketBits;
  // Values below kSubBucketCount get one bucket each (group 0); each power
  // of two from 2^kSubBucketBits to 2^63 is one more group of
  // kSubBucketCount linear sub-buckets: 59 groups, and UINT64_MAX lands in
  // the last bucket.
  static constexpr size_t kBucketCount =
      (64 - kSubBucketBits + 1) * kSubBucketCount;
  // Most samples one bucket holds.
  static constexpr uint64_t kBucketMax = std::numeric_limits<uint32_t>::max();

  // The bucket `value` is counted in.
  static size_t BucketIndex(uint64_t value) {
    if (value < kSubBucketCount) {
      return static_cast<size_t>(value);
    }
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - kSubBucketBits;
    const uint64_t sub = (value >> shift) - kSubBucketCount;
    // Power-of-two group `msb` starts after the groups below it; groups
    // below kSubBucketBits collapse into the identity range handled above.
    const size_t group =
        static_cast<size_t>(msb - kSubBucketBits + 1) * kSubBucketCount;
    return group + static_cast<size_t>(sub);
  }

 private:
  static uint64_t BucketMidpoint(size_t index);
  // Extends buckets_ (zero-filled) to the whole groups covering `size`.
  void Grow(size_t size);

  std::vector<uint32_t> buckets_;  // whole groups up to the highest index
  uint64_t count_ = 0;
  double sum_ = 0.0;
  uint64_t min_ = ~0ULL;
  uint64_t max_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_STATS_HISTOGRAM_H_
