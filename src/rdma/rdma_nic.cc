#include "src/rdma/rdma_nic.h"

#include <algorithm>

namespace leap {

RdmaNic::RdmaNic(const RdmaNicConfig& config)
    : config_(config),
      base_(LatencyModel::Normal(config.base_mean_ns, config.base_stddev_ns,
                                 config.base_min_ns)),
      queues_busy_until_(std::max<size_t>(1, config.num_queues), 0) {}

void RdmaNic::BindFabric(PageTransport* fabric, uint32_t host_id) {
  fabric_ = fabric;
  host_id_ = host_id;
}

SimTimeNs RdmaNic::SubmitPageOpTo(uint32_t node, size_t queue,
                                  const IoRequest& req, SimTimeNs now,
                                  Rng& rng) {
  if (fabric_ == nullptr) {
    return SubmitPageOp(queue, now, rng);
  }
  // Per-core dispatch still paces issue on this host (a core cannot post
  // faster than the wire drains its queue); the wire itself - uplink
  // serialization, cross-host queuing, congestion, base latency - is the
  // shared fabric's business.
  auto& q_busy = queues_busy_until_[queue % queues_busy_until_.size()];
  const SimTimeNs issue = std::max(now, q_busy);
  q_busy = issue + kRdmaSerializationNs;
  ++ops_issued_;
  // Stamp the uplink id: layers above the NIC do not know it.
  IoRequest stamped = req;
  stamped.host = host_id_;
  return fabric_->SubmitPageOp(stamped, node, issue, rng);
}

SimTimeNs RdmaNic::SubmitPageOp(size_t queue, SimTimeNs now, Rng& rng) {
  auto& q_busy = queues_busy_until_[queue % queues_busy_until_.size()];
  // The op waits for its dispatch queue's issue slot, then for the wire.
  // One-sided RDMA ops pipeline: a queue pair can have many outstanding
  // reads, so the queue is released once the op is on the wire - only the
  // serialization time gates the issue rate, while each op's completion
  // still pays the full base latency.
  const SimTimeNs q_start = std::max(now, q_busy);
  const SimTimeNs wire_start = std::max(q_start, link_busy_until_);
  link_busy_until_ = wire_start + kRdmaSerializationNs;
  q_busy = wire_start + kRdmaSerializationNs;
  const SimTimeNs done =
      wire_start + kRdmaSerializationNs + base_.Sample(rng);
  ++ops_issued_;
  return done;
}

}  // namespace leap
