#include "src/sim/latency_model.h"

#include <cmath>

namespace leap {

LatencyModel LatencyModel::Constant(SimTimeNs value) {
  return LatencyModel(Kind::kConstant, static_cast<double>(value), 0.0, value);
}

LatencyModel LatencyModel::Uniform(SimTimeNs lo, SimTimeNs hi) {
  return LatencyModel(Kind::kUniform, static_cast<double>(lo),
                      static_cast<double>(hi), lo);
}

LatencyModel LatencyModel::Normal(SimTimeNs mean, SimTimeNs stddev,
                                  SimTimeNs min) {
  return LatencyModel(Kind::kNormal, static_cast<double>(mean),
                      static_cast<double>(stddev), min);
}

LatencyModel LatencyModel::LogNormal(SimTimeNs median, double sigma,
                                     SimTimeNs min) {
  return LatencyModel(Kind::kLogNormal, std::log(static_cast<double>(median)),
                      sigma, min);
}

double LatencyModel::MeanNs() const {
  switch (kind_) {
    case Kind::kConstant:
      return a_;
    case Kind::kUniform:
      return (a_ + b_) / 2.0;
    case Kind::kNormal:
      // Truncation shifts the mean slightly; ignore for reporting purposes.
      return a_;
    case Kind::kLogNormal:
      return std::exp(a_ + b_ * b_ / 2.0);
  }
  return 0.0;
}

}  // namespace leap
