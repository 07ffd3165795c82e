// Heap footprint regression: a sharded cluster's heap must stay within a
// per-host plus per-shard-pair byte budget, so a structure that grows
// with hosts or with shards^2 faster than its traffic shows up as a test
// failure rather than as a larger resident set nobody looks at.
//
// Heap in use is read with glibc's mallinfo2 (every arena plus mmapped
// chunks). Sanitizer runtimes replace malloc, and other C libraries lack
// mallinfo2, so the test skips there.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/cluster.h"

#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 33)
#include <malloc.h>
#define LEAP_HAVE_MALLINFO2 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LEAP_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LEAP_SANITIZED_HEAP 1
#endif
#endif

namespace leap {
namespace {

#if defined(LEAP_HAVE_MALLINFO2) && !defined(LEAP_SANITIZED_HEAP)
// fig18's geometry, scaled down: 64 hosts over 16 shards (4 per shard),
// nodes = hosts / 4, cross-shard mirror writes every 8th demand miss.
constexpr size_t kHosts = 64;
constexpr size_t kShards = 16;
constexpr size_t kFootprintPages = 512;
constexpr size_t kAccessesPerHost = 1500;

// The budget is the heap growth measured on x86-64 glibc 2.36 (Release),
// plus 25%, in two parts:
//  - per host: the host's machine, process, swap and tier state and its
//    histograms. One shard measured 6,017,392 B, 94,022 B a host.
//  - per shard pair: each shard's queue, fabric and placer, and the
//    outboxes between every pair of shards. 16 shards measured 6,369,296 B,
//    351,904 B (1,375 B a pair) above one shard. A preallocated 256 KiB
//    ring per pair alone would take 64 MiB here.
constexpr size_t kBudgetPerHost = 117'528;
constexpr size_t kBudgetPerShardPair = 1'719;

ClusterConfig FootprintCluster(size_t shards) {
  ClusterConfig config;
  config.hosts = kHosts;
  config.nodes = kHosts / 4;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(/*total_frames=*/kFootprintPages, /*seed=*/42);
  config.host.host_agent.slab_pages = 32;
  config.placement = PlacementPolicy::kPowerOfTwo;
  config.seed = 91;
  config.shards = shards;
  config.window_ns = FabricLookaheadNs(config.fabric) * 4;
  config.mirror_every = 8;
  return config;
}

size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Heap bytes a cluster holds once built, warmed up and run (measured
// while it is still alive).
size_t ClusterHeapGrowth(size_t shards, uint64_t* cross_shard_applied) {
  const size_t before = HeapInUse();
  Cluster cluster(FootprintCluster(shards));
  std::vector<bench::ClusterApp> apps =
      bench::ClusterMixApps(kHosts, kFootprintPages);
  const SimTimeNs warm_end = bench::WarmApps(cluster, apps);
  const std::vector<RunResult> results =
      bench::RunApps(cluster, apps, kAccessesPerHost, warm_end);
  *cross_shard_applied =
      cluster.Stats().totals.Get(counter::kCrossShardApplied);
  return HeapInUse() - before;
}

TEST(Footprint, ShardedClusterHeapStaysWithinBudget) {
  uint64_t applied = 0;
  const size_t one_shard = ClusterHeapGrowth(1, &applied);
  const size_t sharded = ClusterHeapGrowth(kShards, &applied);
  std::printf("heap growth: %zu B at 1 shard, %zu B at %zu shards\n",
              one_shard, sharded, kShards);
  ASSERT_GT(applied, 0u) << "no cross-shard traffic: the test is vacuous";
  EXPECT_LE(one_shard, kHosts * kBudgetPerHost)
      << "one-shard heap growth " << one_shard << " B over the budget of "
      << kBudgetPerHost << " B per host";
  const size_t budget =
      kHosts * kBudgetPerHost + kShards * kShards * kBudgetPerShardPair;
  EXPECT_LE(sharded, budget)
      << "heap growth " << sharded << " B over the budget of " << budget
      << " B (" << kBudgetPerHost << " B per host, " << kBudgetPerShardPair
      << " B per shard pair)";
}
#else
TEST(Footprint, ShardedClusterHeapStaysWithinBudget) {
  GTEST_SKIP() << "needs glibc's mallinfo2 and a heap no sanitizer owns";
}
#endif

}  // namespace
}  // namespace leap
