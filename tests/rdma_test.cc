// RDMA fabric and remote-memory agents: queueing, placement, replication,
// failover, read-your-writes.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "src/rdma/host_agent.h"
#include "src/rdma/rdma_nic.h"
#include "src/rdma/remote_agent.h"
#include "src/sim/rng.h"

namespace leap {
namespace {

TEST(RdmaNic, SinglePageOpNearBaseLatency) {
  RdmaNic nic;
  Rng rng(1);
  double sum = 0;
  const int n = 5000;
  SimTimeNs now = 0;
  for (int i = 0; i < n; ++i) {
    const SimTimeNs done = nic.SubmitPageOp(i % nic.num_queues(), now, rng);
    sum += static_cast<double>(done - now);
    now = done + 100000;  // long idle: no queueing
  }
  const double mean_us = sum / n / 1000.0;
  // Paper: ~4.3 us average 4KB RDMA.
  EXPECT_GT(mean_us, 3.5);
  EXPECT_LT(mean_us, 5.2);
}

TEST(RdmaNic, SameQueuePipelinesAtWireRate) {
  // Ops on one queue pair overlap (many outstanding reads), but issue at
  // most one wire slot per serialization interval: n ops issued together
  // cannot all complete before n serialization slots have elapsed.
  RdmaNicConfig config;
  RdmaNic nic(config);
  Rng rng(2);
  constexpr int kOps = 64;
  SimTimeNs last_done = 0;
  for (int i = 0; i < kOps; ++i) {
    last_done = std::max(last_done, nic.SubmitPageOp(0, 0, rng));
  }
  EXPECT_GE(last_done, kOps * kRdmaSerializationNs);
  // Pipelining: far faster than kOps serialized full-latency round trips.
  EXPECT_LT(last_done, kOps * config.base_mean_ns / 2);
}

TEST(RdmaNic, DistinctQueuesOverlapButShareTheWire) {
  RdmaNicConfig config;
  config.num_queues = 8;
  RdmaNic nic(config);
  Rng rng(3);
  std::vector<SimTimeNs> done;
  for (size_t q = 0; q < 8; ++q) {
    done.push_back(nic.SubmitPageOp(q, 0, rng));
  }
  // All eight overlap: the last finishes well before 8 serialized ops...
  const SimTimeNs max_done = *std::max_element(done.begin(), done.end());
  EXPECT_LT(max_done, 8 * config.base_mean_ns);
  // ...but wire serialization still spaces them out by >= 585ns each.
  std::sort(done.begin(), done.end());
  EXPECT_GE(max_done, config.base_min_ns + 8 * kRdmaSerializationNs);
}

TEST(RdmaNic, TracksOpsAndBytes) {
  RdmaNic nic;
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    nic.SubmitPageOp(0, 0, rng);
  }
  EXPECT_EQ(nic.ops_issued(), 10u);
  EXPECT_EQ(nic.bytes_transferred(), 10 * kPageSize);
}

// --- RemoteAgent -------------------------------------------------------------

TEST(RemoteAgent, SlabAccounting) {
  RemoteAgent node(0, 2);
  EXPECT_TRUE(node.MapSlab());
  EXPECT_TRUE(node.MapSlab());
  EXPECT_FALSE(node.MapSlab());
  EXPECT_EQ(node.FreeSlabs(), 0u);
  node.UnmapSlab();
  EXPECT_EQ(node.FreeSlabs(), 1u);
}

TEST(RemoteAgent, PageTagStore) {
  RemoteAgent node(0, 4);
  EXPECT_FALSE(node.LoadPage(5).has_value());
  node.StorePage(5, 0xDEADBEEF);
  EXPECT_EQ(node.LoadPage(5), 0xDEADBEEFu);
}

// --- HostAgent ---------------------------------------------------------------

class HostAgentTest : public ::testing::Test {
 protected:
  void Build(size_t nodes, size_t replicas, size_t slab_pages = 64) {
    for (size_t i = 0; i < nodes; ++i) {
      nodes_.push_back(std::make_unique<RemoteAgent>(i, 1024));
    }
    HostAgentConfig config;
    config.slab_pages = slab_pages;
    config.replicas = replicas;
    std::vector<RemoteAgent*> refs;
    for (auto& n : nodes_) {
      refs.push_back(n.get());
    }
    agent_ = std::make_unique<HostAgent>(config, refs, 99);
  }

  std::vector<std::unique_ptr<RemoteAgent>> nodes_;
  std::unique_ptr<HostAgent> agent_;
};

TEST_F(HostAgentTest, SlabMappedOnFirstTouch) {
  Build(2, 1);
  EXPECT_EQ(agent_->mapped_slab_count(), 0u);
  Rng rng(5);
  const IoRequest req = DemandRead(10);
  SimTimeNs ready = 0;
  agent_->ReadPages({&req, 1}, 0, rng, {&ready, 1});
  EXPECT_EQ(agent_->mapped_slab_count(), 1u);
  EXPECT_GT(ready, 0u);
}

TEST_F(HostAgentTest, ReplicationMapsSlabsOnDistinctNodes) {
  Build(3, 2);
  const auto& mapping = agent_->MappingForSlot(0);
  ASSERT_EQ(mapping.nodes.size(), 2u);
  EXPECT_NE(mapping.nodes[0], mapping.nodes[1]);
}

TEST_F(HostAgentTest, PowerOfTwoChoicesBalancesLoad) {
  Build(4, 1, /*slab_pages=*/16);
  Rng rng(6);
  // Touch 200 slabs.
  for (SwapSlot slab = 0; slab < 200; ++slab) {
    const IoRequest req = DemandRead(slab * 16);
    SimTimeNs ready = 0;
    agent_->ReadPages({&req, 1}, 0, rng, {&ready, 1});
  }
  const auto loads = agent_->NodeLoads();
  const size_t min_load = *std::min_element(loads.begin(), loads.end());
  const size_t max_load = *std::max_element(loads.begin(), loads.end());
  // Two-choices keeps the gap small (random placement would routinely
  // exceed this).
  EXPECT_LE(max_load - min_load, 12u);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), 0u), 200u);
}

TEST_F(HostAgentTest, ReadYourWritesThroughSlabRouting) {
  Build(3, 2);
  Rng rng(7);
  agent_->WriteTag(123, 0xABCD, 0, rng);
  EXPECT_EQ(agent_->ReadTag(123), 0xABCDu);
  EXPECT_FALSE(agent_->ReadTag(9999999).has_value());
}

TEST_F(HostAgentTest, FailoverToReplicaAfterPrimaryFailure) {
  Build(3, 2);
  Rng rng(8);
  agent_->WriteTag(50, 0x1111, 0, rng);
  const auto mapping = agent_->MappingForSlot(50);
  // Kill the primary.
  for (auto& node : nodes_) {
    if (node->node_id() == mapping.nodes[0]) {
      node->Fail();
    }
  }
  EXPECT_EQ(agent_->ReadTag(50), 0x1111u);  // served by the replica
}

TEST_F(HostAgentTest, ReplicatedWritesCompleteAfterAllReplicas) {
  Build(2, 2);
  Rng rng(9);
  const SimTimeNs one = agent_->WritePage(EvictionWrite(0), 0, rng);
  // A write to 2 replicas costs at least one op, and the completion is the
  // max over replicas.
  EXPECT_GT(one, 0u);
  EXPECT_EQ(agent_->nic().ops_issued(), 2u);
}

TEST_F(HostAgentTest, MeanReadLatencyReported) {
  Build(1, 1);
  EXPECT_GT(agent_->MeanReadLatencyNs(), 3000.0);
  EXPECT_EQ(agent_->name(), "remote-memory");
}

}  // namespace
}  // namespace leap
