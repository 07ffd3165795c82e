// Backing store models: HDD seek behavior, SSD channels, busy chaining.
#include <gtest/gtest.h>

#include "src/sim/rng.h"
#include "src/storage/hdd.h"
#include "src/storage/ssd.h"

namespace leap {
namespace {

TEST(Hdd, RandomReadsAverageNearCalibration) {
  Hdd hdd;
  Rng rng(5);
  double sum = 0;
  const int n = 3000;
  SimTimeNs now = 0;
  for (int i = 0; i < n; ++i) {
    const IoRequest req = DemandRead(rng.NextU64(1 << 24));
    SimTimeNs ready = 0;
    hdd.ReadPages({&req, 1}, now, rng, {&ready, 1});
    sum += static_cast<double>(ready - now);
    now = ready + 1000;  // idle gap so requests do not queue
  }
  const double mean_us = sum / n / 1000.0;
  // Paper Figure 1: ~91.5 us average 4KB HDD access.
  EXPECT_GT(mean_us, 70.0);
  EXPECT_LT(mean_us, 115.0);
}

TEST(Hdd, SequentialReadsSkipSeek) {
  Hdd hdd;
  Rng rng(6);
  SimTimeNs now = 0;
  // Position the head.
  IoRequest req = DemandRead(1000);
  SimTimeNs ready = 0;
  hdd.ReadPages({&req, 1}, now, rng, {&ready, 1});
  now = ready;
  // Next sequential page: transfer-only.
  req = DemandRead(1001);
  hdd.ReadPages({&req, 1}, now, rng, {&ready, 1});
  EXPECT_EQ(ready - now, kHddTransferNs);
}

TEST(Hdd, BatchOfSequentialPagesAmortizesSeek) {
  Hdd hdd;
  Rng rng(7);
  std::vector<IoRequest> batch(8);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = i == 0 ? DemandRead(5000) : PrefetchRead(5000 + i);
  }
  std::vector<SimTimeNs> ready(8, 0);
  hdd.ReadPages(batch, 0, rng, ready);
  // One seek + 8 transfers, far below 8 seeks.
  EXPECT_LT(ready.back(), 8 * kHddSeekMedianNs);
  // Completion times are monotone along the batch.
  for (size_t i = 1; i < ready.size(); ++i) {
    EXPECT_GT(ready[i], ready[i - 1]);
  }
}

TEST(Hdd, RequestsSerializeBehindBusyDevice) {
  Hdd hdd;
  Rng rng(8);
  const IoRequest a = DemandRead(1);
  const IoRequest b = DemandRead(100000);
  SimTimeNs ready_a = 0;
  SimTimeNs ready_b = 0;
  hdd.ReadPages({&a, 1}, 0, rng, {&ready_a, 1});
  // Issued at time 0 as well, but the head is busy with `a`.
  hdd.ReadPages({&b, 1}, 0, rng, {&ready_b, 1});
  EXPECT_GT(ready_b, ready_a);
}

TEST(Hdd, WritesOccupyTheHead) {
  Hdd hdd;
  Rng rng(9);
  const SimTimeNs w = hdd.WritePage(EvictionWrite(42), 0, rng);
  EXPECT_GT(w, 0u);
  const IoRequest req = DemandRead(43);
  SimTimeNs ready = 0;
  hdd.ReadPages({&req, 1}, 0, rng, {&ready, 1});
  EXPECT_GE(ready, w);  // read waited for the write
}

TEST(Ssd, ReadsAverageNearCalibration) {
  Ssd ssd;
  Rng rng(10);
  double sum = 0;
  const int n = 5000;
  SimTimeNs now = 0;
  for (int i = 0; i < n; ++i) {
    const IoRequest req = DemandRead(rng.NextU64(1 << 24));
    SimTimeNs ready = 0;
    ssd.ReadPages({&req, 1}, now, rng, {&ready, 1});
    sum += static_cast<double>(ready - now);
    now = ready + 5000;
  }
  const double mean_us = sum / n / 1000.0;
  // Paper Figure 1: ~20 us average 4KB SSD access.
  EXPECT_GT(mean_us, 15.0);
  EXPECT_LT(mean_us, 25.0);
}

TEST(Ssd, ChannelsServeDisjointSlotsInParallel) {
  Ssd ssd;
  Rng rng(11);
  // Four slots mapping to four distinct channels, issued together.
  const std::vector<IoRequest> batch = {DemandRead(0), PrefetchRead(1),
                                        PrefetchRead(2), PrefetchRead(3)};
  std::vector<SimTimeNs> ready(4, 0);
  ssd.ReadPages(batch, 0, rng, ready);
  // Parallel channels: the batch finishes in ~1 read, not 4.
  const SimTimeNs max_ready = *std::max_element(ready.begin(), ready.end());
  EXPECT_LT(max_ready, 2 * (kSsdReadMeanNs + 3 * kSsdReadStddevNs));
}

TEST(Ssd, SameChannelSerializes) {
  Ssd ssd;
  Rng rng(12);
  // Slots 0 and 4 share channel 0.
  const std::vector<IoRequest> batch = {DemandRead(0), PrefetchRead(4)};
  std::vector<SimTimeNs> ready(2, 0);
  ssd.ReadPages(batch, 0, rng, ready);
  EXPECT_GT(ready[1], ready[0]);
  EXPECT_GE(ready[1], 2 * kSsdReadMinNs);
}

TEST(Ssd, WritesSlowerThanReads) {
  Ssd ssd;
  EXPECT_GT(kSsdWriteMeanNs, kSsdReadMeanNs);
  Rng rng(13);
  const SimTimeNs done = ssd.WritePage(EvictionWrite(9), 0, rng);
  EXPECT_GE(done, kSsdWriteMinNs);
}

TEST(Stores, NamesAndMeans) {
  Hdd hdd;
  Ssd ssd;
  EXPECT_EQ(hdd.name(), "hdd");
  EXPECT_EQ(ssd.name(), "ssd");
  EXPECT_GT(hdd.MeanReadLatencyNs(), ssd.MeanReadLatencyNs());
}

}  // namespace
}  // namespace leap
