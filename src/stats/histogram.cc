#include "src/stats/histogram.h"

#include <algorithm>

namespace leap {

uint64_t Histogram::BucketMidpoint(size_t index) {
  if (index < kSubBucketCount) {
    return index;
  }
  const size_t group = index / kSubBucketCount;
  const uint64_t sub = index % kSubBucketCount + kSubBucketCount;
  const int shift = static_cast<int>(group) - 1;
  const uint64_t lo = sub << shift;
  const uint64_t width = 1ULL << shift;
  return lo + width / 2;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

uint64_t Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * static_cast<double>(count_) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::clamp(BucketMidpoint(i), Min(), Max());
    }
  }
  return max_;
}

double Histogram::FractionAtOrBelow(uint64_t value) const {
  if (count_ == 0) {
    return 0.0;
  }
  const size_t cutoff = BucketIndex(value);
  uint64_t seen = 0;
  for (size_t i = 0; i <= cutoff && i < buckets_.size(); ++i) {
    seen += buckets_[i];
  }
  return static_cast<double>(seen) / static_cast<double>(count_);
}

void Histogram::Merge(const Histogram& other) {
  const size_t common = std::min(buckets_.size(), other.buckets_.size());
  for (size_t i = 0; i < common; ++i) {
    if (other.buckets_[i] > kBucketMax - buckets_[i]) {
      throw std::overflow_error("leap::Histogram: bucket count overflow");
    }
  }
  if (other.buckets_.size() > buckets_.size()) {
    Grow(other.buckets_.size());
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Grow(size_t size) {
  // Whole groups, reserved exactly: most histograms stop within a few
  // groups of their first value, so doubling would mostly hold zeros.
  // kBucketCount is itself a whole number of groups.
  const size_t groups = (size + kSubBucketCount - 1) / kSubBucketCount;
  const size_t buckets = groups * kSubBucketCount;
  buckets_.reserve(buckets);
  buckets_.resize(buckets, 0);
}

void Histogram::Reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0.0;
  min_ = ~0ULL;
  max_ = 0;
}

}  // namespace leap
