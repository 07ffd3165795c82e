#include "src/sim/latency_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace leap {
namespace {

TEST(LatencyModel, ConstantAlwaysReturnsValue) {
  Rng rng(1);
  const auto m = LatencyModel::Constant(4300);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.Sample(rng), 4300u);
  }
  EXPECT_DOUBLE_EQ(m.MeanNs(), 4300.0);
}

TEST(LatencyModel, UniformStaysInRange) {
  Rng rng(2);
  const auto m = LatencyModel::Uniform(100, 200);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const SimTimeNs v = m.Sample(rng);
    ASSERT_GE(v, 100u);
    ASSERT_LE(v, 200u);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 20000, 150.0, 2.0);
  EXPECT_DOUBLE_EQ(m.MeanNs(), 150.0);
}

TEST(LatencyModel, NormalMeanAndTruncation) {
  Rng rng(3);
  const auto m = LatencyModel::Normal(1000, 300, 200);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const SimTimeNs v = m.Sample(rng);
    ASSERT_GE(v, 200u);
    sum += static_cast<double>(v);
  }
  // Truncation at mean - 2.67 sigma pulls the mean up only slightly.
  EXPECT_NEAR(sum / n, 1000.0, 20.0);
}

TEST(LatencyModel, LogNormalMedianAndSkew) {
  Rng rng(4);
  const auto m = LatencyModel::LogNormal(17200, 0.66, 1000);
  std::vector<SimTimeNs> samples;
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    samples.push_back(m.Sample(rng));
    sum += static_cast<double>(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  const double median = static_cast<double>(samples[n / 2]);
  const double mean = sum / n;
  EXPECT_NEAR(median, 17200.0, 500.0);
  // Mean of lognormal = median * exp(sigma^2/2) ~ 1.243x the median: the
  // "average strays far from the median" effect the paper describes.
  EXPECT_GT(mean, median * 1.15);
  EXPECT_NEAR(mean, m.MeanNs(), m.MeanNs() * 0.05);
}

TEST(LatencyModel, LogNormalTailIsHeavy) {
  Rng rng(5);
  const auto m = LatencyModel::LogNormal(10000, 0.7, 0);
  std::vector<SimTimeNs> samples;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    samples.push_back(m.Sample(rng));
  }
  std::sort(samples.begin(), samples.end());
  const double p50 = static_cast<double>(samples[n / 2]);
  const double p99 = static_cast<double>(samples[n * 99 / 100]);
  // exp(2.326 * 0.7) ~ 5.1x.
  EXPECT_GT(p99 / p50, 4.0);
  EXPECT_LT(p99 / p50, 6.5);
}

TEST(LatencyModel, DefaultConstructedIsZero) {
  Rng rng(6);
  LatencyModel m;
  EXPECT_EQ(m.Sample(rng), 0u);
}

// Sample rounds with RoundNonNegative instead of std::llround; the two must
// agree on every finite value in [0, 2^63).
SimTimeNs Llround(double x) { return static_cast<SimTimeNs>(std::llround(x)); }

TEST(RoundNonNegative, MatchesLlroundAtHalvesAndTheirNeighbours) {
  EXPECT_EQ(RoundNonNegative(0.0), 0u);
  EXPECT_EQ(RoundNonNegative(0.5), 1u);
  EXPECT_EQ(RoundNonNegative(std::nextafter(0.5, 0.0)), 0u);
  for (double k : {0.0, 1.0, 2.0, 999.0, 4300.0, 17200.0, 1e9, 0x1p51,
                   0x1p52 - 1.0}) {
    const double half = k + 0.5;
    for (double x : {k, half, std::nextafter(half, 0.0),
                     std::nextafter(half, INFINITY), k + 1.0}) {
      EXPECT_EQ(RoundNonNegative(x), Llround(x)) << std::hexfloat << x;
    }
  }
}

TEST(RoundNonNegative, MatchesLlroundFrom2Pow52Up) {
  // Doubles here are integers (spacing 1, then 2, ...).
  for (double x = 0x1p52; x < 0x1p53; x = x * 1.01 + 3.0) {
    EXPECT_EQ(RoundNonNegative(x), Llround(x)) << std::hexfloat << x;
    const double below = std::nextafter(x, 0.0);
    EXPECT_EQ(RoundNonNegative(below), Llround(below)) << std::hexfloat << x;
  }
  for (double x : {0x1p53, 0x1p60, std::nextafter(0x1p63, 0.0)}) {
    EXPECT_EQ(RoundNonNegative(x), Llround(x)) << std::hexfloat << x;
  }
}

TEST(RoundNonNegative, MatchesLlroundOnASeededSweep) {
  Rng rng(77);
  for (int i = 0; i < 200000; ++i) {
    // Magnitudes from 2^-10 to 2^62, uniform in the exponent.
    const double x = std::ldexp(rng.NextDouble() + 0.5,
                                static_cast<int>(rng.NextU64(73)) - 10);
    ASSERT_EQ(RoundNonNegative(x), Llround(x)) << std::hexfloat << x;
  }
}

// The `min` floor clamps before rounding: a floored sample is min itself,
// and every sample equals llround of the same draw, floored.
TEST(LatencyModel, SampleRoundsLikeLlroundIncludingMinFloors) {
  const SimTimeNs kMin = 200;
  const auto normal = LatencyModel::Normal(300, 400, kMin);
  const auto lognormal = LatencyModel::LogNormal(250, 1.5, kMin);
  const double log_median = std::log(250.0);
  Rng rng(8), ref(8);
  int floored = 0;
  for (int i = 0; i < 20000; ++i) {
    const double n = 300.0 + ref.NextGaussian() * 400.0;
    const SimTimeNs got = normal.Sample(rng);
    ASSERT_EQ(got, Llround(std::max(n, static_cast<double>(kMin))));
    floored += got == kMin;
    const double l = std::exp(log_median + ref.NextGaussian() * 1.5);
    ASSERT_EQ(lognormal.Sample(rng),
              Llround(std::max(l, static_cast<double>(kMin))));
  }
  EXPECT_GT(floored, 1000);  // the floor is exercised, not just reachable
}

}  // namespace
}  // namespace leap
