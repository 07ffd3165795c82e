// The two remote-I/O data paths under study.
//
// DefaultDataPath models the legacy kernel path (Figure 1): VFS/swap entry
// overhead, then the block layer's staging/merging/batching, then the
// device. The demand page is released only when its merged batch completes.
//
// LeapDataPath models the paper's lean path (Figure 6): a small fixed entry
// cost, then per-page asynchronous submission straight to the RDMA dispatch
// queues (or device). The demand page completes on its own; prefetched
// pages trail behind without delaying it.
//
// Both paths consume tagged IoRequest batches: the demand page is the
// entry tagged IoClass::kDemandRead (any position), prefetches are tagged
// kPrefetch, and writes carry kWriteback/kEviction - the tag, not a
// positional convention, is the contract, and it travels with the op all
// the way to the transport's link schedulers.
#ifndef LEAP_SRC_PAGING_DATA_PATH_H_
#define LEAP_SRC_PAGING_DATA_PATH_H_

#include <memory>
#include <span>
#include <string>

#include "src/blocklayer/request_queue.h"
#include "src/sim/io_request.h"
#include "src/sim/latency_model.h"
#include "src/storage/backing_store.h"

namespace leap {

class DataPath {
 public:
  virtual ~DataPath() = default;

  // Reads one fault's pages: exactly one entry tagged IoClass::kDemandRead
  // plus any number of kPrefetch entries (asserted). Fills `ready_at`,
  // indexed exactly like `reqs`, and returns the demand-tagged entry's
  // completion time. Implementations must require (and assert)
  // ready_at.size() == reqs.size().
  virtual SimTimeNs ReadPages(std::span<const IoRequest> reqs, SimTimeNs now,
                              Rng& rng, std::span<SimTimeNs> ready_at) = 0;

  // Swap-out / writeback of one page; returns completion time.
  virtual SimTimeNs WritePage(const IoRequest& req, SimTimeNs now,
                              Rng& rng) = 0;

  // Service latency charged to a page-cache hit on this path. The default
  // path's constant software overhead keeps this near 1 us for D-VMM
  // (Figure 2's floor); Leap's optimized path hits in ~0.27 us.
  virtual SimTimeNs CacheHitCost(Rng& rng) = 0;

  virtual std::string name() const = 0;

  // Flight-recorder wiring (no-op by default). The default path forwards
  // it to its block-layer queue so batch staging shows up as spans; the
  // Leap path has no staging stage worth a span (that IS the point) and
  // keeps the no-op.
  virtual void SetTrace(TraceRecorder* trace, uint32_t host_id) {
    (void)trace;
    (void)host_id;
  }
};

// Index of the (single) demand-tagged entry of a fault batch, or
// reqs.size() when there is none. Shared by both paths and asserted on:
// the tag replaced the old "demand page is index 0" convention, and every
// batch must carry it explicitly.
size_t DemandIndex(std::span<const IoRequest> reqs);

struct DefaultPathConfig {
  BlockLayerConfig block;
  // Constant software floor added to every request on this path,
  // including hits (the "around 1 us" implementation overhead the paper
  // measures for disaggregation frameworks). Zero for plain disk swap.
  SimTimeNs hit_cost_ns = 1050;
  SimTimeNs hit_jitter_ns = 150;
};

class DefaultDataPath : public DataPath {
 public:
  DefaultDataPath(const DefaultPathConfig& config, BackingStore* store);

  SimTimeNs ReadPages(std::span<const IoRequest> reqs, SimTimeNs now,
                      Rng& rng, std::span<SimTimeNs> ready_at) override;
  SimTimeNs WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) override;
  SimTimeNs CacheHitCost(Rng& rng) override;
  std::string name() const override { return "default"; }
  void SetTrace(TraceRecorder* trace, uint32_t host_id) override {
    queue_.SetTrace(trace, host_id);
  }

  const RequestQueue& request_queue() const { return queue_; }

 private:
  DefaultPathConfig config_;
  RequestQueue queue_;
};

// Mean of Leap's lean software entry (fault entry + Leap bookkeeping +
// dispatch), ~2.1 us in Figure 1; stddev and floor in data_path.cc.
inline constexpr SimTimeNs kLeapEntryMeanNs = 2100;

struct LeapPathConfig {
  // Optimized cache-hit service cost (Figure 1: 0.27 us).
  SimTimeNs hit_cost_ns = 270;
  SimTimeNs hit_jitter_ns = 60;
};

class LeapDataPath : public DataPath {
 public:
  LeapDataPath(const LeapPathConfig& config, BackingStore* store);

  SimTimeNs ReadPages(std::span<const IoRequest> reqs, SimTimeNs now,
                      Rng& rng, std::span<SimTimeNs> ready_at) override;
  SimTimeNs WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) override;
  SimTimeNs CacheHitCost(Rng& rng) override;
  std::string name() const override { return "leap"; }

 private:
  LeapPathConfig config_;
  BackingStore* store_;
  LatencyModel entry_;
};

}  // namespace leap

#endif  // LEAP_SRC_PAGING_DATA_PATH_H_
