#include "src/storage/ssd.h"

#include <algorithm>

namespace leap {
namespace {

constexpr SimTimeNs kWriteStddevNs = 15 * kNsPerUs;

}  // namespace

Ssd::Ssd()
    : read_(LatencyModel::Normal(kSsdReadMeanNs, kSsdReadStddevNs,
                                 kSsdReadMinNs)),
      write_(LatencyModel::Normal(kSsdWriteMeanNs, kWriteStddevNs,
                                  kSsdWriteMinNs)),
      busy_until_(kSsdChannels, 0) {}

void Ssd::ReadPages(std::span<const IoRequest> reqs, SimTimeNs now, Rng& rng,
                    std::span<SimTimeNs> ready_at) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    auto& busy = busy_until_[ChannelFor(reqs[i].slot)];
    const SimTimeNs start = std::max(now, busy);
    const SimTimeNs done = start + read_.Sample(rng);
    busy = done;
    ready_at[i] = done;
  }
}

SimTimeNs Ssd::WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) {
  auto& busy = busy_until_[ChannelFor(req.slot)];
  const SimTimeNs start = std::max(now, busy);
  const SimTimeNs done = start + write_.Sample(rng);
  busy = done;
  return done;
}

}  // namespace leap
