// CXL-like intermediate memory tier: a direct-attached backing store with
// load/store-class latency (hundreds of ns), sitting between local DRAM
// and the fabric remote pool in the tier hierarchy. Modeled like the SSD -
// a truncated-normal device with a few independent channels - but an order
// of magnitude faster, so a fast-tier hit costs less than a microsecond
// where a fabric round trip costs ~5 us (the regime the hpides DaMoN'25
// tier study measures prefetch reliability across).
#ifndef LEAP_SRC_TIER_CXL_STORE_H_
#define LEAP_SRC_TIER_CXL_STORE_H_

#include <vector>

#include "src/sim/latency_model.h"
#include "src/storage/backing_store.h"

namespace leap {

class CxlStore : public BackingStore {
 public:
  CxlStore();

  void ReadPages(std::span<const IoRequest> reqs, SimTimeNs now, Rng& rng,
                 std::span<SimTimeNs> ready_at) override;
  SimTimeNs WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) override;
  std::string name() const override { return "cxl"; }
  double MeanReadLatencyNs() const override { return read_.MeanNs(); }

 private:
  size_t ChannelFor(SwapSlot slot) const { return slot % busy_until_.size(); }

  LatencyModel read_;
  LatencyModel write_;
  std::vector<SimTimeNs> busy_until_;
};

}  // namespace leap

#endif  // LEAP_SRC_TIER_CXL_STORE_H_
