// Rotational disk model.
//
// Random 4KB reads pay a seek+rotation cost (log-normal, calibrated so the
// average lands near the paper's measured 91.48 us Figure 1 stage value);
// physically sequential follow-on reads pay only the transfer time. A
// single head: requests serialize behind each other (busy chaining).
#ifndef LEAP_SRC_STORAGE_HDD_H_
#define LEAP_SRC_STORAGE_HDD_H_

#include "src/sim/latency_model.h"
#include "src/storage/backing_store.h"

namespace leap {

// Seek + rotational cost of a random access is log-normal with this median
// (sigma and floor in hdd.cc); 56 us median * exp(0.55^2/2) + 26 us
// transfer ~ 91 us average random 4KB access, the paper's Figure 1
// measurement.
inline constexpr SimTimeNs kHddSeekMedianNs = 56 * kNsPerUs;
// Per-4KB transfer once positioned (~150 MB/s streaming).
inline constexpr SimTimeNs kHddTransferNs = 26 * kNsPerUs;

class Hdd : public BackingStore {
 public:
  Hdd();

  void ReadPages(std::span<const IoRequest> reqs, SimTimeNs now, Rng& rng,
                 std::span<SimTimeNs> ready_at) override;
  SimTimeNs WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) override;
  std::string name() const override { return "hdd"; }
  double MeanReadLatencyNs() const override;

 private:
  SimTimeNs AccessOne(SwapSlot slot, SimTimeNs start, Rng& rng);

  LatencyModel seek_;
  SimTimeNs busy_until_ = 0;
  SwapSlot head_position_ = kInvalidSlot;
};

}  // namespace leap

#endif  // LEAP_SRC_STORAGE_HDD_H_
