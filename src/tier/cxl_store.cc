#include "src/tier/cxl_store.h"

#include <algorithm>

namespace leap {
namespace {

// Truncated-normal 4KB read and write costs.
constexpr SimTimeNs kReadMeanNs = 600;
constexpr SimTimeNs kReadStddevNs = 120;
constexpr SimTimeNs kReadMinNs = 350;
constexpr SimTimeNs kWriteMeanNs = 750;
constexpr SimTimeNs kWriteStddevNs = 150;
constexpr SimTimeNs kWriteMinNs = 450;
// Independent channels, striped by slot, so back-to-back migrations queue.
constexpr size_t kCxlChannels = 8;

}  // namespace

CxlStore::CxlStore()
    : read_(LatencyModel::Normal(kReadMeanNs, kReadStddevNs, kReadMinNs)),
      write_(LatencyModel::Normal(kWriteMeanNs, kWriteStddevNs, kWriteMinNs)),
      busy_until_(kCxlChannels, 0) {}

void CxlStore::ReadPages(std::span<const IoRequest> reqs, SimTimeNs now,
                         Rng& rng, std::span<SimTimeNs> ready_at) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    auto& busy = busy_until_[ChannelFor(reqs[i].slot)];
    const SimTimeNs start = std::max(now, busy);
    const SimTimeNs done = start + read_.Sample(rng);
    busy = done;
    ready_at[i] = done;
  }
}

SimTimeNs CxlStore::WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) {
  auto& busy = busy_until_[ChannelFor(req.slot)];
  const SimTimeNs start = std::max(now, busy);
  const SimTimeNs done = start + write_.Sample(rng);
  busy = done;
  return done;
}

}  // namespace leap
