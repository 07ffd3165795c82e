// RDMA NIC model: per-core dispatch queues over a shared 56 Gbps fabric.
//
// Mirrors the paper's remote I/O interface (section 4.4): each CPU core
// owns an RDMA dispatch queue; a 4KB read costs a base one-sided RDMA
// latency (~4.3 us average on their InfiniBand testbed) plus wire
// serialization (4KB at 56 Gbps ~ 585 ns). Contention appears as queueing
// on the per-core queue and on the shared link, which is what Leap's
// adaptive throttling avoids congesting (section 5.3.3).
//
// Two wire models:
//  - standalone (default): the link is private to this host, modeled by
//    link_busy_until_ + a sampled base latency - the single-machine setup.
//  - fabric-bound (cluster runs): BindFabric routes every op through a
//    shared PageTransport whose latency depends on what every other host
//    is doing (per-link bandwidth, queuing, congestion). The per-core
//    dispatch queues still pace issue on this side.
#ifndef LEAP_SRC_RDMA_RDMA_NIC_H_
#define LEAP_SRC_RDMA_RDMA_NIC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/sim/io_request.h"
#include "src/sim/latency_model.h"
#include "src/sim/types.h"

namespace leap {

// Transport the NIC dispatches onto when bound to a shared multi-host
// fabric (src/cluster/fabric.h implements it). Kept here so the rdma layer
// does not depend on the cluster layer.
class PageTransport {
 public:
  virtual ~PageTransport() = default;

  // One tagged page op from `req.host`'s uplink to `dst_node`'s downlink;
  // returns the completion time. The IoClass tag is what the transport's
  // link schedulers key on.
  virtual SimTimeNs SubmitPageOp(const IoRequest& req, uint32_t dst_node,
                                 SimTimeNs now, Rng& rng) = 0;

  // Congestion telemetry: EWMA of per-op queue delay (link-slot wait plus
  // incast stall), in ns. Published to prefetch policies through
  // HostAgent::congestion_signals(); transports without queueing report 0.
  // The class-blind overload mixes every IoClass; the per-class overload
  // feeds congestion control (demand/prefetch only, so repair or
  // writeback storms cannot masquerade as data-path congestion).
  virtual double QueueDelayEwmaNs() const { return 0.0; }
  virtual double QueueDelayEwmaNs(IoClass /*cls*/) const { return 0.0; }
};

// Wire time per 4KB page at 56 Gbps.
inline constexpr SimTimeNs kRdmaSerializationNs = 585;

struct RdmaNicConfig {
  size_t num_queues = 8;  // per-core dispatch queues
  // One-sided 4KB RDMA read/write base latency.
  SimTimeNs base_mean_ns = 3700;
  SimTimeNs base_stddev_ns = 900;
  SimTimeNs base_min_ns = 2500;
};

class RdmaNic {
 public:
  explicit RdmaNic(const RdmaNicConfig& config = RdmaNicConfig());

  // Submits one page op on `queue` (callers hash by core/process). Returns
  // completion time. Ops on one queue serialize; the shared link adds
  // serialization delay across all queues.
  SimTimeNs SubmitPageOp(size_t queue, SimTimeNs now, Rng& rng);

  // Node-addressed tagged submission: over the fabric when bound (the NIC
  // stamps req.host with its uplink id), identical to SubmitPageOp
  // otherwise (the private link does not care which node or class).
  SimTimeNs SubmitPageOpTo(uint32_t node, size_t queue, const IoRequest& req,
                           SimTimeNs now, Rng& rng);

  // Cluster wiring: route the wire + base latency through a shared fabric;
  // `host_id` names this host's uplink.
  void BindFabric(PageTransport* fabric, uint32_t host_id);
  bool fabric_bound() const { return fabric_ != nullptr; }

  size_t num_queues() const { return queues_busy_until_.size(); }
  uint64_t ops_issued() const { return ops_issued_; }
  // Total bytes pushed over the fabric so far.
  uint64_t bytes_transferred() const { return ops_issued_ * kPageSize; }

 private:
  RdmaNicConfig config_;
  LatencyModel base_;
  std::vector<SimTimeNs> queues_busy_until_;
  SimTimeNs link_busy_until_ = 0;
  uint64_t ops_issued_ = 0;
  PageTransport* fabric_ = nullptr;
  uint32_t host_id_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_RDMA_RDMA_NIC_H_
