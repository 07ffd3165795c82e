// Parametric latency distributions for data-path stages and devices.
//
// The paper's section 2.2 observation that "significant variations in the
// preparation and batching stages ... cause the average to stray far from
// the median" is modeled with log-normal stages; devices use truncated
// normals around their published averages.
#ifndef LEAP_SRC_SIM_LATENCY_MODEL_H_
#define LEAP_SRC_SIM_LATENCY_MODEL_H_

#include <algorithm>
#include <cmath>

#include "src/sim/rng.h"
#include "src/sim/types.h"

namespace leap {

// Rounds half away from zero, like std::llround, for finite x in
// [0, 2^63). Exact there: x - trunc(x) is computed without error (below
// 2^52 the fraction fits the mantissa; from 2^52 up x is an integer), so
// comparing it to 0.5 decides the rounding. Runs once per latency sample,
// where a call into libm's lround was a measurable share of run time.
inline SimTimeNs RoundNonNegative(double x) {
  const auto whole = static_cast<SimTimeNs>(x);
  return whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}

class LatencyModel {
 public:
  LatencyModel() : LatencyModel(Constant(0)) {}

  static LatencyModel Constant(SimTimeNs value);
  static LatencyModel Uniform(SimTimeNs lo, SimTimeNs hi);
  // Normal truncated below at `min`.
  static LatencyModel Normal(SimTimeNs mean, SimTimeNs stddev, SimTimeNs min);
  // Log-normal specified by its median and the sigma of the underlying
  // normal; heavier sigma -> heavier tail (mean pulled above median).
  static LatencyModel LogNormal(SimTimeNs median, double sigma, SimTimeNs min);

  // Defined here so each device and path stage inlines its per-access
  // draw.
  SimTimeNs Sample(Rng& rng) const {
    double v = 0.0;
    switch (kind_) {
      case Kind::kConstant:
        v = a_;
        break;
      case Kind::kUniform:
        v = a_ + rng.NextDouble() * (b_ - a_);
        break;
      case Kind::kNormal:
        v = a_ + rng.NextGaussian() * b_;
        break;
      case Kind::kLogNormal:
        v = std::exp(a_ + rng.NextGaussian() * b_);
        break;
    }
    return RoundNonNegative(std::max(v, static_cast<double>(min_)));
  }

  // Analytic expectation of the distribution (used by tests and to report
  // calibration targets).
  double MeanNs() const;

 private:
  enum class Kind { kConstant, kUniform, kNormal, kLogNormal };

  LatencyModel(Kind kind, double a, double b, SimTimeNs min)
      : kind_(kind), a_(a), b_(b), min_(min) {}

  Kind kind_;
  double a_;       // constant value / lo / mean / log-median
  double b_;       // unused / hi / stddev / sigma
  SimTimeNs min_;  // truncation floor
};

}  // namespace leap

#endif  // LEAP_SRC_SIM_LATENCY_MODEL_H_
