// Machine-level paging pipeline: fault lifecycle, cgroup reclaim, cache
// hits/misses, eager vs lazy eviction, prefetch-cache caps, VFS mode.
#include "src/runtime/machine.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/runtime/presets.h"

namespace leap {
namespace {

MachineConfig SmallLeapConfig() {
  MachineConfig config = LeapVmmConfig(/*total_frames=*/4096, /*seed=*/11);
  return config;
}

MachineConfig SmallDefaultConfig() {
  return DefaultVmmConfig(PrefetchKind::kReadAhead, 4096, 11);
}

TEST(Machine, FirstTouchIsMinorFault) {
  Machine machine(SmallLeapConfig());
  const Pid pid = machine.CreateProcess(0);
  const AccessResult r = machine.Access(pid, 42, false, 1000);
  EXPECT_EQ(r.type, AccessType::kMinorFault);
  EXPECT_GT(r.latency, 0u);
  EXPECT_TRUE(machine.IsResident(pid, 42));
}

// Vpns index the page table, swap map and LRU directly, so a vpn at or
// past kMaxVpn is refused before anything is sized to it - on both the
// paging and the VFS path - and the machine stays usable.
TEST(Machine, VpnAtOrPastMaxIsRejectedBeforeAnyTableGrows) {
  for (const MachineConfig& config :
       {SmallLeapConfig(), LeapVfsConfig(4096, 256, 5)}) {
    Machine machine(config);
    const Pid pid = machine.CreateProcess(0);
    for (const Vpn vpn : {kMaxVpn, kMaxVpn + 1, ~Vpn{0}}) {
      EXPECT_THROW(machine.Access(pid, vpn, /*write=*/true, 1000),
                   std::out_of_range);
    }
    EXPECT_EQ(machine.counters().Get(counter::kPageFaults), 0u);
    EXPECT_EQ(machine.resident_pages(pid), 0u);
    EXPECT_EQ(machine.cache_size(), 0u);
    EXPECT_EQ(machine.free_frames(), 4096u);
    EXPECT_FALSE(machine.IsResident(pid, kMaxVpn));
    EXPECT_NE(machine.Access(pid, 0, false, 2000).latency, 0u);
    EXPECT_EQ(machine.counters().Get(counter::kPageFaults), 1u);
  }
}

TEST(Machine, SecondTouchIsLocalHit) {
  Machine machine(SmallLeapConfig());
  const Pid pid = machine.CreateProcess(0);
  machine.Access(pid, 42, false, 1000);
  const AccessResult r = machine.Access(pid, 42, false, 2000);
  EXPECT_EQ(r.type, AccessType::kLocalHit);
  EXPECT_EQ(r.latency, kLocalAccessNs);
}

TEST(Machine, CgroupLimitForcesEviction) {
  Machine machine(SmallLeapConfig());
  const Pid pid = machine.CreateProcess(/*cgroup_limit_pages=*/16);
  SimTimeNs now = 0;
  for (Vpn v = 0; v < 32; ++v) {
    now += 10000;
    machine.Access(pid, v, true, now);
  }
  EXPECT_LE(machine.resident_pages(pid), 16u);
  EXPECT_GT(machine.counters().Get(counter::kEvictions), 0u);
  // Dirty pages were written back on their way out.
  EXPECT_GT(machine.counters().Get(counter::kWritebacks), 0u);
}

TEST(Machine, EvictedPageFaultsBackAsMajorFault) {
  Machine machine(SmallLeapConfig());
  const Pid pid = machine.CreateProcess(8);
  SimTimeNs now = 0;
  for (Vpn v = 0; v < 16; ++v) {
    now += 100000;
    machine.Access(pid, v, true, now);
  }
  // Page 0 must have been evicted; touching it again is a remote access.
  ASSERT_FALSE(machine.IsResident(pid, 0));
  now += 100000;
  const AccessResult r = machine.Access(pid, 0, false, now);
  EXPECT_TRUE(r.type == AccessType::kMiss || r.type == AccessType::kCacheHit ||
              r.type == AccessType::kCacheWaitHit);
  EXPECT_TRUE(machine.IsResident(pid, 0));
  EXPECT_GT(machine.counters().Get(counter::kDemandReads) +
                machine.counters().Get(counter::kCacheHits),
            0u);
}

TEST(Machine, SequentialFaultsGetPrefetchHits) {
  Machine machine(SmallLeapConfig());
  const Pid pid = machine.CreateProcess(64);
  SimTimeNs now = 0;
  // Populate 512 pages (evicting along the way), then sweep again:
  // the second sweep faults sequentially through swap.
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (Vpn v = 0; v < 512; ++v) {
      now += 20000;
      machine.Access(pid, v, sweep == 0, now);
    }
  }
  EXPECT_GT(machine.counters().Get(counter::kPrefetchHits), 100u);
  const double coverage = machine.counters().Ratio(
      counter::kPrefetchHits, counter::kCacheMisses);
  EXPECT_GT(coverage, 0.3);
}

TEST(Machine, EagerEvictionKeepsCacheEmptyOfConsumedEntries) {
  Machine machine(SmallLeapConfig());
  const Pid pid = machine.CreateProcess(64);
  SimTimeNs now = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (Vpn v = 0; v < 512; ++v) {
      now += 20000;
      machine.Access(pid, v, sweep == 0, now);
    }
  }
  EXPECT_EQ(machine.stale_entries(), 0u);
  EXPECT_GT(machine.counters().Get(counter::kEagerFrees), 0u);
}

TEST(Machine, LazyEvictionAccumulatesStaleEntriesUntilKswapd) {
  MachineConfig config = SmallDefaultConfig();
  // Slow kswapd so staleness is visible.
  config.kswapd_period_ns = 50 * kNsPerMs;
  Machine machine(config);
  const Pid pid = machine.CreateProcess(64);
  SimTimeNs now = 0;
  size_t max_stale = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (Vpn v = 0; v < 512; ++v) {
      now += 20000;
      machine.Access(pid, v, sweep == 0, now);
      max_stale = std::max(max_stale, machine.stale_entries());
    }
  }
  EXPECT_GT(max_stale, 10u);
  // kswapd retires stale entries and records their eviction wait.
  machine.Access(pid, 0, false, now + kNsPerSec);
  EXPECT_GT(machine.eviction_wait_hist().count(), 0u);
}

// kswapd dequeues consumed lazy-mode entries oldest-first: a tick with more
// of them than its batch retires exactly the `kswapd_scan_batch` oldest.
TEST(Machine, LazyKswapdRetiresOldestConsumedEntriesFirst) {
  MachineConfig config = DefaultVmmConfig(PrefetchKind::kNone, 4096, 11);
  config.kswapd_period_ns = kNsPerSec;
  config.kswapd_scan_batch = 4;
  Machine machine(config);
  const Pid pid = machine.CreateProcess(16);
  SimTimeNs now = 0;
  for (Vpn v = 0; v < 32; ++v) {
    now += 10000;
    machine.Access(pid, v, true, now);
  }
  // Pages 0..15 are swapped out. Fault eight back 100 ms apart; each miss
  // leaves its consumed demand entry for kswapd.
  for (Vpn v = 0; v < 8; ++v) {
    ASSERT_EQ(machine.Access(pid, v, false, (v + 1) * 100 * kNsPerMs).type,
              AccessType::kMiss);
  }
  ASSERT_EQ(machine.stale_entries(), 8u);

  // The first tick (1 s) retires the entries consumed at 100..400 ms, so
  // every recorded wait is about 600 ms or more; retiring the 500 ms one
  // would record about 500 ms.
  machine.Access(pid, 7, false, kNsPerSec + 1);  // local hit drains the tick
  EXPECT_EQ(machine.stale_entries(), 4u);
  EXPECT_EQ(machine.counters().Get(counter::kLruScans), 4u);
  EXPECT_EQ(machine.eviction_wait_hist().count(), 4u);
  EXPECT_GT(machine.eviction_wait_hist().Min(), 550 * kNsPerMs);

  machine.Access(pid, 7, false, 2 * kNsPerSec + 1);
  EXPECT_EQ(machine.stale_entries(), 0u);
  EXPECT_EQ(machine.eviction_wait_hist().count(), 8u);
}

// TTL aging spends what pass 1 leaves of the batch on the oldest expired
// prefetches, in insertion order, and counts each as an unused prefetch.
TEST(Machine, KswapdAgesExpiredPrefetchesOldestFirstWithinBudget) {
  MachineConfig config = DefaultVmmConfig(PrefetchKind::kNextNLine, 4096, 11);
  config.kswapd_period_ns = kNsPerSec;
  config.kswapd_scan_batch = 4;
  Machine machine(config);
  const Pid pid = machine.CreateProcess(64);
  SimTimeNs now = 0;
  for (Vpn v = 0; v < 128; ++v) {
    now += 10000;
    machine.Access(pid, v, true, now);
  }
  // Pages 0..63 were swapped out in order, so page v sits in slot v. Each
  // miss prefetches the next eight slots.
  ASSERT_EQ(machine.Access(pid, 0, false, 100 * kNsPerMs).type,
            AccessType::kMiss);
  ASSERT_EQ(machine.Access(pid, 32, false, 200 * kNsPerMs).type,
            AccessType::kMiss);
  ASSERT_EQ(machine.counters().Get(counter::kPrefetchIssued), 16u);
  ASSERT_EQ(machine.stale_entries(), 2u);

  // Tick at 1 s: the two demand entries take half the batch, and the other
  // half goes to the two oldest of the sixteen expired prefetches.
  machine.Access(pid, 0, false, kNsPerSec + 1);  // local hit drains the tick
  EXPECT_EQ(machine.stale_entries(), 0u);
  EXPECT_EQ(machine.counters().Get(counter::kPrefetchUnused), 2u);
  now = kNsPerSec + 1;
  for (Vpn v = 3; v <= 8; ++v) {
    now += 10000;
    EXPECT_EQ(machine.Access(pid, v, false, now).type, AccessType::kCacheHit)
        << "page " << v;
  }
  for (Vpn v = 33; v <= 40; ++v) {
    now += 10000;
    EXPECT_EQ(machine.Access(pid, v, false, now).type, AccessType::kCacheHit)
        << "page " << v;
  }
  for (Vpn v : {Vpn{2}, Vpn{1}}) {
    now += 10000;
    EXPECT_EQ(machine.Access(pid, v, false, now).type, AccessType::kMiss)
        << "page " << v;
  }
}

TEST(Machine, PrefetchCacheLimitRequiresEagerEviction) {
  MachineConfig config = SmallDefaultConfig();
  config.prefetch_cache_limit_pages = 8;
  EXPECT_THROW(Machine{config}, std::invalid_argument);
  config.prefetch_cache_limit_pages = 0;
  EXPECT_NO_THROW(Machine{config});
}

TEST(Machine, EagerAllocationIsCheaperThanLazy) {
  auto run = [](MachineConfig config) {
    config.kswapd_period_ns = 10 * kNsPerMs;
    Machine machine(config);
    const Pid pid = machine.CreateProcess(64);
    SimTimeNs now = 0;
    for (int sweep = 0; sweep < 4; ++sweep) {
      for (Vpn v = 0; v < 512; ++v) {
        now += 20000;
        machine.Access(pid, v, sweep == 0, now);
      }
    }
    return machine.alloc_hist().Mean();
  };
  const double lazy_mean = run(SmallDefaultConfig());
  const double eager_mean = run(SmallLeapConfig());
  EXPECT_LT(eager_mean, lazy_mean);
}

TEST(Machine, PrefetchCacheLimitEnforced) {
  MachineConfig config = SmallLeapConfig();
  config.prefetch_cache_limit_pages = 8;
  Machine machine(config);
  const Pid pid = machine.CreateProcess(64);
  SimTimeNs now = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (Vpn v = 0; v < 512; ++v) {
      now += 20000;
      machine.Access(pid, v, sweep == 0, now);
      EXPECT_LE(machine.cache_size(), 24u);  // limit + in-flight slack
    }
  }
}

TEST(Machine, GlobalPressureReclaimsViaDirectReclaim) {
  MachineConfig config = SmallLeapConfig();
  config.total_frames = 128;  // tiny DRAM
  Machine machine(config);
  const Pid pid = machine.CreateProcess(0);  // no cgroup limit
  SimTimeNs now = 0;
  for (Vpn v = 0; v < 512; ++v) {
    now += 50000;
    machine.Access(pid, v, true, now);
  }
  // The machine survives and keeps the resident set within DRAM.
  EXPECT_LE(machine.resident_pages(pid), 128u);
  EXPECT_GT(machine.counters().Get(counter::kEvictions), 0u);
}

TEST(Machine, RemoteReadsCountedOnRemoteMedium) {
  Machine machine(SmallLeapConfig());
  const Pid pid = machine.CreateProcess(8);
  SimTimeNs now = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (Vpn v = 0; v < 64; ++v) {
      now += 50000;
      machine.Access(pid, v, true, now);
    }
  }
  EXPECT_GT(machine.counters().Get(counter::kRemoteReads), 0u);
  EXPECT_GT(machine.counters().Get(counter::kRemoteWrites), 0u);
  ASSERT_NE(machine.host_agent(), nullptr);
  EXPECT_GT(machine.host_agent()->nic().ops_issued(), 0u);
}

TEST(Machine, DiskMachineHasNoHostAgent) {
  MachineConfig config = DiskSwapConfig(Medium::kHdd, PrefetchKind::kReadAhead,
                                        4096, 1);
  Machine machine(config);
  EXPECT_EQ(machine.host_agent(), nullptr);
}

TEST(Machine, TimelinessRecordedOnPrefetchHits) {
  Machine machine(SmallLeapConfig());
  const Pid pid = machine.CreateProcess(64);
  SimTimeNs now = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (Vpn v = 0; v < 512; ++v) {
      now += 20000;
      machine.Access(pid, v, sweep == 0, now);
    }
  }
  EXPECT_GT(machine.timeliness_hist().count(), 0u);
}

// --- VFS mode ----------------------------------------------------------------

TEST(MachineVfs, WriteThenReadHitsCache) {
  MachineConfig config = LeapVfsConfig(4096, 256, 5);
  Machine machine(config);
  const Pid pid = machine.CreateProcess(0);
  const AccessResult w = machine.Access(pid, 10, true, 1000);
  EXPECT_EQ(w.type, AccessType::kMinorFault);  // write-allocate
  const AccessResult r = machine.Access(pid, 10, false, 5000);
  EXPECT_EQ(r.type, AccessType::kCacheHit);
}

TEST(MachineVfs, CacheLimitEvictsAndWritesBackDirtyPages) {
  MachineConfig config = LeapVfsConfig(4096, /*vfs_cache_pages=*/32, 5);
  Machine machine(config);
  const Pid pid = machine.CreateProcess(0);
  SimTimeNs now = 0;
  for (Vpn v = 0; v < 256; ++v) {
    now += 20000;
    machine.Access(pid, v, true, now);
  }
  EXPECT_LE(machine.cache_size(), 33u);
  EXPECT_GT(machine.counters().Get(counter::kWritebacks), 0u);
  // Re-reading evicted offsets misses.
  const AccessResult r = machine.Access(pid, 0, false, now + 100000);
  EXPECT_EQ(r.type, AccessType::kMiss);
}

TEST(MachineVfs, SequentialReadsPrefetchWell) {
  MachineConfig config = LeapVfsConfig(8192, 1024, 5);
  Machine machine(config);
  const Pid pid = machine.CreateProcess(0);
  SimTimeNs now = 0;
  // Write 2048 file pages, then stream them back twice.
  for (Vpn v = 0; v < 2048; ++v) {
    now += 5000;
    machine.Access(pid, v, true, now);
  }
  for (Vpn v = 0; v < 2048; ++v) {
    now += 5000;
    machine.Access(pid, v, false, now);
  }
  EXPECT_GT(machine.counters().Get(counter::kPrefetchHits), 300u);
}

}  // namespace
}  // namespace leap
