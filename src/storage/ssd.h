// NAND SSD model: ~20 us average 4KB read (paper Figure 1), several
// independent channels, so modest internal parallelism before queueing.
#ifndef LEAP_SRC_STORAGE_SSD_H_
#define LEAP_SRC_STORAGE_SSD_H_

#include <vector>

#include "src/sim/latency_model.h"
#include "src/storage/backing_store.h"

namespace leap {

// Truncated-normal 4KB read and write costs (write stddev in ssd.cc).
inline constexpr SimTimeNs kSsdReadMeanNs = 20 * kNsPerUs;  // Figure 1
inline constexpr SimTimeNs kSsdReadStddevNs = 5 * kNsPerUs;
inline constexpr SimTimeNs kSsdReadMinNs = 8 * kNsPerUs;
inline constexpr SimTimeNs kSsdWriteMeanNs = 60 * kNsPerUs;
inline constexpr SimTimeNs kSsdWriteMinNs = 25 * kNsPerUs;
// Independent channels, striped by slot.
inline constexpr size_t kSsdChannels = 4;

class Ssd : public BackingStore {
 public:
  Ssd();

  void ReadPages(std::span<const IoRequest> reqs, SimTimeNs now, Rng& rng,
                 std::span<SimTimeNs> ready_at) override;
  SimTimeNs WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) override;
  std::string name() const override { return "ssd"; }
  double MeanReadLatencyNs() const override { return read_.MeanNs(); }

 private:
  // Channel selected by slot (static striping, like flash dies).
  size_t ChannelFor(SwapSlot slot) const { return slot % busy_until_.size(); }

  LatencyModel read_;
  LatencyModel write_;
  std::vector<SimTimeNs> busy_until_;
};

}  // namespace leap

#endif  // LEAP_SRC_STORAGE_SSD_H_
