#include "src/storage/hdd.h"

#include <algorithm>
#include <cmath>

namespace leap {
namespace {

// Log-normal sigma and floor of the seek + rotation cost (median in hdd.h).
constexpr double kSeekSigma = 0.55;
constexpr SimTimeNs kSeekMinNs = 25 * kNsPerUs;

}  // namespace

Hdd::Hdd()
    : seek_(LatencyModel::LogNormal(kHddSeekMedianNs, kSeekSigma,
                                    kSeekMinNs)) {}

SimTimeNs Hdd::AccessOne(SwapSlot slot, SimTimeNs start, Rng& rng) {
  SimTimeNs service = kHddTransferNs;
  if (head_position_ == kInvalidSlot || slot != head_position_ + 1) {
    // Distance-graded positioning cost: short hops stay within the track
    // or cylinder (mostly rotational delay); long hops pay the full
    // amortized seek. Distances are in 4KB pages.
    const uint64_t distance =
        head_position_ == kInvalidSlot
            ? ~0ULL
            : (slot > head_position_ ? slot - head_position_
                                     : head_position_ - slot);
    double scale = 1.0;
    if (distance <= 4) {
      scale = 0.2;  // same track: settle + partial rotation
    } else if (distance <= 64) {
      scale = 0.6;  // nearby track
    } else if (distance <= 1024) {
      scale = 0.85;  // nearby cylinder
    }
    service += static_cast<SimTimeNs>(
        scale * static_cast<double>(seek_.Sample(rng)));
  }
  head_position_ = slot;
  return start + service;
}

void Hdd::ReadPages(std::span<const IoRequest> reqs, SimTimeNs now, Rng& rng,
                    std::span<SimTimeNs> ready_at) {
  SimTimeNs t = std::max(now, busy_until_);
  for (size_t i = 0; i < reqs.size(); ++i) {
    t = AccessOne(reqs[i].slot, t, rng);
    ready_at[i] = t;
  }
  busy_until_ = t;
}

SimTimeNs Hdd::WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) {
  const SimTimeNs start = std::max(now, busy_until_);
  const SimTimeNs done = AccessOne(req.slot, start, rng);
  busy_until_ = done;
  return done;
}

double Hdd::MeanReadLatencyNs() const {
  return seek_.MeanNs() + static_cast<double>(kHddTransferNs);
}

}  // namespace leap
