// Block layer: elevator merge/sort, batching semantics, stage overheads,
// and the tagged-batch contract (the demand page is identified by its
// IoClass tag, not by its position).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/blocklayer/request_queue.h"
#include "src/storage/hdd.h"
#include "src/storage/ssd.h"

namespace leap {
namespace {

// Read batch builder: first slot demand, the rest prefetches - the shape
// the fault path produces.
std::vector<IoRequest> ReadBatch(const std::vector<SwapSlot>& slots) {
  std::vector<IoRequest> reqs;
  reqs.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    reqs.push_back(i == 0 ? DemandRead(slots[i]) : PrefetchRead(slots[i]));
  }
  return reqs;
}

TEST(Bio, MergePredicate) {
  const Bio a{100, 4, false, 0};
  EXPECT_EQ(a.end(), 104u);
  EXPECT_TRUE(a.CanMergeWith(Bio{104, 2, false, 0}));  // back merge
  EXPECT_TRUE(a.CanMergeWith(Bio{98, 2, false, 0}));   // front merge
  EXPECT_FALSE(a.CanMergeWith(Bio{105, 2, false, 0}));
  EXPECT_FALSE(a.CanMergeWith(Bio{104, 2, true, 0}));  // rw mismatch
}

TEST(RequestQueue, MergeAndSortCollapsesContiguousRuns) {
  const auto reqs = ReadBatch({7, 5, 6, 100, 101, 3});
  const auto requests = RequestQueue::MergeAndSort(reqs, 0);
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].start, 3u);
  EXPECT_EQ(requests[0].npages, 1u);
  EXPECT_EQ(requests[1].start, 5u);
  EXPECT_EQ(requests[1].npages, 3u);
  EXPECT_EQ(requests[2].start, 100u);
  EXPECT_EQ(requests[2].npages, 2u);
}

TEST(RequestQueue, MergeAndSortDeduplicates) {
  const auto reqs = ReadBatch({4, 4, 5, 5});
  const auto requests = RequestQueue::MergeAndSort(reqs, 0);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].npages, 2u);
}

TEST(RequestQueue, DuplicateSlotKeepsDemandIdentity) {
  // A prefetch that collides with the demand slot dedups away; the merged
  // request set is identical whichever entry came first in the batch.
  const std::vector<IoRequest> demand_first = {DemandRead(4),
                                               PrefetchRead(4),
                                               PrefetchRead(5)};
  const std::vector<IoRequest> prefetch_first = {PrefetchRead(4),
                                                 DemandRead(4),
                                                 PrefetchRead(5)};
  const auto a = RequestQueue::MergeAndSort(demand_first, 0);
  const auto b = RequestQueue::MergeAndSort(prefetch_first, 0);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].start, b[0].start);
  EXPECT_EQ(a[0].npages, 2u);
  EXPECT_EQ(b[0].npages, 2u);
}

class RequestQueueTest : public ::testing::Test {
 protected:
  RequestQueueTest() : queue_(BlockLayerConfig{}, &store_) {}

  Ssd store_;
  RequestQueue queue_;
  Rng rng_{17};
};

TEST_F(RequestQueueTest, SingleReadPaysAllStages) {
  const IoRequest req = DemandRead(9);
  SimTimeNs ready = 0;
  queue_.SubmitBatch({&req, 1}, 0, rng_, {&ready, 1});
  // Minimum possible: stage floors + device floor.
  const BlockLayerConfig config;
  EXPECT_GE(ready, config.prep_min_ns + config.queue_min_ns +
                       config.dispatch_min_ns + kSsdReadMinNs);
}

TEST_F(RequestQueueTest, StageOverheadAveragesNearFigure1) {
  // Mean software overhead should approximate 10.04 + 21.88 + 2.1 ~ 34 us.
  double sum = 0;
  const int n = 3000;
  SimTimeNs now = 0;
  for (int i = 0; i < n; ++i) {
    const IoRequest req = DemandRead(static_cast<SwapSlot>(i) * 1000);
    SimTimeNs ready = 0;
    queue_.SubmitBatch({&req, 1}, now, rng_, {&ready, 1});
    sum += static_cast<double>(ready - now);
    now = ready + 200000;
  }
  const double mean_us = sum / n / 1000.0;
  // ~34 us stages + ~20 us SSD.
  EXPECT_GT(mean_us, 44.0);
  EXPECT_LT(mean_us, 66.0);
}

TEST_F(RequestQueueTest, PagesCompleteInElevatorOrderOnDisk) {
  // Bio-granular completion in sorted order: on a single-head device,
  // later slots of a merged run finish no earlier than earlier ones.
  Hdd hdd;
  RequestQueue disk_queue(BlockLayerConfig{}, &hdd);
  const auto batch = ReadBatch({50, 51, 52, 53, 54, 55, 56, 57});
  std::vector<SimTimeNs> ready(batch.size(), 0);
  disk_queue.SubmitBatch(batch, 0, rng_, ready);
  for (size_t i = 1; i < ready.size(); ++i) {
    EXPECT_GE(ready[i], ready[i - 1]);
  }
}

TEST_F(RequestQueueTest, DemandInMiddleOfRunWaitsForPredecessors) {
  // A demand page sorted behind prefetch pages eats their service time -
  // the elevator reordering cost of the default path. The demand entry is
  // identified by its tag wherever it sits in the batch.
  Hdd hdd;
  RequestQueue disk_queue(BlockLayerConfig{}, &hdd);
  const std::vector<IoRequest> batch = {DemandRead(54), PrefetchRead(50),
                                        PrefetchRead(51), PrefetchRead(52),
                                        PrefetchRead(53)};
  std::vector<SimTimeNs> ready(batch.size(), 0);
  disk_queue.SubmitBatch(batch, 0, rng_, ready);
  // The demand page (slot 54) completes last in the merged run.
  for (size_t i = 1; i < ready.size(); ++i) {
    EXPECT_LE(ready[i], ready[0]);
  }
}

TEST_F(RequestQueueTest, MergedBatchCountsBios) {
  const auto batch = ReadBatch({10, 11, 12, 13});
  std::vector<SimTimeNs> ready(batch.size(), 0);
  queue_.SubmitBatch(batch, 0, rng_, ready);
  EXPECT_EQ(queue_.requests_dispatched(), 1u);
  EXPECT_EQ(queue_.bios_merged(), 3u);
}

TEST_F(RequestQueueTest, WritesGoThroughStagesToo) {
  const SimTimeNs done = queue_.SubmitWrite(EvictionWrite(77), 0, rng_);
  const BlockLayerConfig config;
  EXPECT_GE(done, config.prep_min_ns + config.queue_min_ns +
                      config.dispatch_min_ns + kSsdWriteMinNs);
}

TEST_F(RequestQueueTest, EmptyBatchIsNoOp) {
  std::vector<SimTimeNs> ready;
  queue_.SubmitBatch({}, 0, rng_, ready);
  EXPECT_EQ(queue_.requests_dispatched(), 0u);
}

TEST_F(RequestQueueTest, HighVarianceDragsMeanAboveMedian) {
  // The paper's observation about preparation/batching variance.
  std::vector<SimTimeNs> samples;
  SimTimeNs now = 0;
  for (int i = 0; i < 4000; ++i) {
    const IoRequest req = DemandRead(static_cast<SwapSlot>(i) * 997);
    SimTimeNs ready = 0;
    queue_.SubmitBatch({&req, 1}, now, rng_, {&ready, 1});
    samples.push_back(ready - now);
    now = ready + 200000;
  }
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (SimTimeNs s : samples) {
    sum += static_cast<double>(s);
  }
  const double mean = sum / static_cast<double>(samples.size());
  const double median = static_cast<double>(samples[samples.size() / 2]);
  EXPECT_GT(mean, median * 1.05);
}

}  // namespace
}  // namespace leap
