// Deterministic pseudo-random number generation for reproducible simulation.
//
// xoshiro256** seeded via SplitMix64. Every simulation component takes an
// explicit Rng so whole experiments replay bit-identically from one seed.
#ifndef LEAP_SRC_SIM_RNG_H_
#define LEAP_SRC_SIM_RNG_H_

#include <bit>
#include <cstdint>

namespace leap {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform over the full 64-bit range. This draw, the bounded one and
  // NextDouble are defined in the header so that per-access callers
  // (latency and workload sampling) inline them.
  uint64_t NextU64() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound == 0 returns 0.
  uint64_t NextU64(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = NextU64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // True with probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Standard normal via Box-Muller (cached second variate).
  double NextGaussian();

  // Derive an independent child stream (for per-component determinism).
  Rng Fork();

 private:
  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace leap

#endif  // LEAP_SRC_SIM_RNG_H_
