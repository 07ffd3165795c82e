// Tiered far memory (src/tier/): CXL-like store, tier-aware routing with
// per-slot residency, the background hot/cold migrator, and the
// disabled-path guarantee (tier off => no tier state, identical runs).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>

#include "src/runtime/app_runner.h"
#include "src/runtime/cluster.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/sim/event_queue.h"
#include "src/storage/ssd.h"
#include "src/tier/cxl_store.h"
#include "src/tier/tier_migrator.h"
#include "src/tier/tiered_store.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

TierConfig SmallTierConfig(size_t cxl_pages) {
  TierConfig config;
  config.enabled = true;
  config.cxl_capacity_pages = cxl_pages;
  return config;
}

SimTimeNs ReadOne(BackingStore& store, SwapSlot slot, SimTimeNs now,
                  Rng& rng, IoClass cls = IoClass::kDemandRead) {
  IoRequest req = DemandRead(slot, /*tenant=*/1, now);
  req.cls = cls;
  SimTimeNs ready = 0;
  store.ReadPages(std::span<const IoRequest>(&req, 1), now, rng,
                  std::span<SimTimeNs>(&ready, 1));
  return ready;
}

// --- CxlStore ---------------------------------------------------------------

TEST(CxlStore, SubMicrosecondReadsFasterThanSsd) {
  CxlStore cxl;
  Ssd ssd;
  EXPECT_LT(cxl.MeanReadLatencyNs(), 1000.0);
  EXPECT_LT(cxl.MeanReadLatencyNs(), ssd.MeanReadLatencyNs() / 10.0);
  Rng rng(7);
  const SimTimeNs ready = ReadOne(cxl, 42, 1000, rng);
  EXPECT_GT(ready, 1000);
  EXPECT_LT(ready, 1000 + 5000);  // well under a fabric round trip
}

// --- TieredStore ------------------------------------------------------------

struct TierFixture {
  explicit TierFixture(size_t cxl_pages)
      : store(SmallTierConfig(cxl_pages), &remote, &flash) {
    store.SetCounters(&counters);
  }

  uint64_t Count(CounterId id) const { return counters.Get(id); }

  Ssd remote;  // stand-in for the fabric path (any BackingStore works)
  Ssd flash;
  Counters counters;
  TieredStore store;
  Rng rng{11};
};

TEST(TieredStore, NewSlotsFillCxlThenSpillToRemote) {
  TierFixture fx(/*cxl_pages=*/2);
  fx.store.WritePage(EvictionWrite(10), 0, fx.rng);
  fx.store.WritePage(EvictionWrite(20), 0, fx.rng);
  fx.store.WritePage(EvictionWrite(30), 0, fx.rng);
  EXPECT_EQ(fx.store.TierOf(10), kTierCxl);
  EXPECT_EQ(fx.store.TierOf(20), kTierCxl);
  EXPECT_EQ(fx.store.TierOf(30), kTierRemote);
  EXPECT_EQ(fx.Count(counter::kTierSpills), 1u);
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 2u);
  EXPECT_EQ(fx.store.TierPages(kTierRemote), 1u);
}

TEST(TieredStore, RewriteStaysInPlace) {
  TierFixture fx(/*cxl_pages=*/1);
  fx.store.WritePage(EvictionWrite(10), 0, fx.rng);
  fx.store.WritePage(EvictionWrite(30), 0, fx.rng);  // spills
  fx.store.WritePage(EvictionWrite(30), 0, fx.rng);  // rewrite in place
  fx.store.WritePage(EvictionWrite(10), 0, fx.rng);
  EXPECT_EQ(fx.store.TierOf(10), kTierCxl);
  EXPECT_EQ(fx.store.TierOf(30), kTierRemote);
  EXPECT_EQ(fx.Count(counter::kTierSpills), 1u);  // rewrites never spill
}

TEST(TieredStore, DemandReadsCountFastAndSlowHits) {
  TierFixture fx(/*cxl_pages=*/1);
  fx.store.WritePage(EvictionWrite(10), 0, fx.rng);  // cxl
  fx.store.WritePage(EvictionWrite(30), 0, fx.rng);  // remote
  ReadOne(fx.store, 10, 100, fx.rng);
  ReadOne(fx.store, 30, 100, fx.rng);
  ReadOne(fx.store, 30, 200, fx.rng, IoClass::kPrefetch);  // not a hit stat
  EXPECT_EQ(fx.Count(counter::kTierFastHits), 1u);
  EXPECT_EQ(fx.Count(counter::kTierSlowHits), 1u);
}

TEST(TieredStore, UnknownReadSlotAdoptedOnRemote) {
  TierFixture fx(/*cxl_pages=*/4);
  EXPECT_EQ(fx.store.TierOf(99), kTierCount);
  ReadOne(fx.store, 99, 100, fx.rng);
  EXPECT_EQ(fx.store.TierOf(99), kTierRemote);
}

TEST(TieredStore, MigrateSlotMovesResidencyAndRestartsHeat) {
  TierFixture fx(/*cxl_pages=*/4);
  fx.store.WritePage(EvictionWrite(30), 0, fx.rng);
  // Force it remote by filling CXL first.
  ASSERT_EQ(fx.store.TierOf(30), kTierCxl);
  fx.store.MigrateSlot(30, kTierCxl, kTierRemote, 0, fx.rng);
  ReadOne(fx.store, 30, 100, fx.rng);
  ReadOne(fx.store, 30, 200, fx.rng);
  EXPECT_EQ(fx.store.AccessCount(kTierRemote, 30), 3u);  // insert + 2 reads
  EXPECT_TRUE(fx.store.MigrateSlot(30, kTierRemote, kTierCxl, 300, fx.rng));
  EXPECT_EQ(fx.store.TierOf(30), kTierCxl);
  // Heat is per residency epoch: the promoted page starts over at 1.
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 30), 1u);
  EXPECT_EQ(fx.store.AccessCount(kTierRemote, 30), 0u);
  EXPECT_EQ(fx.Count(counter::kTierPromotions), 1u);
  EXPECT_EQ(fx.Count(counter::kTierDemotions), 1u);
}

TEST(TieredStore, MigrateSlotRefusesBadMoves) {
  TierFixture fx(/*cxl_pages=*/1);
  fx.store.WritePage(EvictionWrite(10), 0, fx.rng);  // cxl (full now)
  fx.store.WritePage(EvictionWrite(30), 0, fx.rng);  // remote
  EXPECT_FALSE(fx.store.MigrateSlot(99, kTierRemote, kTierCxl, 0, fx.rng));
  EXPECT_FALSE(fx.store.MigrateSlot(30, kTierCxl, kTierRemote, 0, fx.rng));
  EXPECT_FALSE(fx.store.MigrateSlot(30, kTierRemote, kTierCxl, 0, fx.rng));
  EXPECT_EQ(fx.Count(counter::kTierPromotions), 0u);
  EXPECT_EQ(fx.Count(counter::kTierDemotions), 0u);
}

TEST(TieredStore, MigrationRecordsTraceEvents) {
  TierFixture fx(/*cxl_pages=*/4);
  TraceConfig trace_config;
  trace_config.enabled = true;
  TraceRecorder trace(trace_config);
  fx.store.SetTrace(&trace, /*host_id=*/3);
  fx.store.WritePage(EvictionWrite(10), 0, fx.rng);
  fx.store.MigrateSlot(10, kTierCxl, kTierRemote, 50, fx.rng);
  ASSERT_EQ(trace.size(), 1u);
  const TraceEvent& e = trace.At(0);
  EXPECT_EQ(e.kind, TraceEventKind::kTierDemote);
  EXPECT_EQ(e.a, kTierCxl);
  EXPECT_EQ(e.b, kTierRemote);
  EXPECT_EQ(e.host, 3u);
  EXPECT_EQ(e.cls, IoClass::kMigration);
}

// --- TierMigrator -----------------------------------------------------------

TEST(TierMigrator, DemotesColdAndPromotesHot) {
  TierFixture fx(/*cxl_pages=*/8);
  TierConfig config = fx.store.config();
  config.migrate_batch = 8;
  // A real watermark gap at this tiny capacity (the defaults truncate to
  // high == low == 7 pages): demote from 8 down to 4, promote back to < 7.
  config.demote_high_watermark = 0.9;   // 7 pages
  config.demote_low_watermark = 0.6;    // 4 pages
  config.promote_threshold = 3;
  // Fill CXL with never-read pages, then spill two more to remote.
  for (SwapSlot s = 0; s < 10; ++s) {
    fx.store.WritePage(EvictionWrite(s), 0, fx.rng);
  }
  ASSERT_EQ(fx.store.TierOf(8), kTierRemote);
  ASSERT_EQ(fx.store.TierOf(9), kTierRemote);
  // Slot 9 is hot (insert + two reads = count 3, at promote_threshold);
  // slot 8 is warm but below it (count 2) - a recently-touched-but-cool
  // page the promote scan must skip, not stop at.
  ReadOne(fx.store, 9, 100, fx.rng);
  ReadOne(fx.store, 9, 200, fx.rng);
  ReadOne(fx.store, 8, 300, fx.rng);

  EventQueue events;
  TierMigrator migrator(config, &events, &fx.store, /*seed=*/5);
  migrator.Start(1000);
  // The tick plans immediately but trickles the copies across the period,
  // so run one full period to let every planned move land.
  events.RunUntil(1000 + kTierMigratePeriodNs - 1);

  EXPECT_EQ(migrator.ticks(), 1u);
  // CXL was at capacity (8 > high watermark 7): cold pages demoted down to
  // the low watermark, then the hot remote page promoted into the room.
  EXPECT_EQ(fx.store.TierOf(9), kTierCxl);
  EXPECT_EQ(fx.store.TierOf(8), kTierRemote);
  EXPECT_EQ(fx.store.TierOf(0), kTierRemote);  // coldest CXL page went down
  EXPECT_GE(fx.Count(counter::kTierDemotions), 1u);
  EXPECT_EQ(fx.Count(counter::kTierPromotions), 1u);
  EXPECT_LE(fx.store.TierPages(kTierCxl), 8u);
}

TEST(TierMigrator, ColdFloorSinksFullyDecayedPagesToFlash) {
  TierFixture fx(/*cxl_pages=*/1);
  TierConfig config = fx.store.config();
  config.remote_cold_demote_batch = 4;
  config.decay_every_ticks = 1;  // decay on every tick
  fx.store.WritePage(EvictionWrite(1), 0, fx.rng);   // cxl
  fx.store.WritePage(EvictionWrite(2), 0, fx.rng);   // remote, count 1
  EventQueue events;
  TierMigrator migrator(config, &events, &fx.store, /*seed=*/5);
  migrator.Start(1000);
  // Tick 1 decays count 1 -> 0; the cold floor then sinks it to flash
  // (copies land staggered across the period).
  events.RunUntil(1000 + kTierMigratePeriodNs - 1);
  EXPECT_EQ(fx.store.TierOf(2), kTierSsd);
  EXPECT_GE(fx.Count(counter::kTierDemotions), 1u);
}

TEST(TierMigrator, ReschedulesEveryPeriod) {
  TierFixture fx(/*cxl_pages=*/4);
  const TierConfig config = fx.store.config();
  EventQueue events;
  TierMigrator migrator(config, &events, &fx.store, /*seed=*/5);
  migrator.Start(0);
  events.RunUntil(3 * kTierMigratePeriodNs + 1);
  EXPECT_EQ(migrator.ticks(), 4u);  // t=0, T, 2T, 3T
}

// A tick that plans nothing leaves the next one free to skip planning
// until the store changes; a read that heats a remote page past the bar
// must make the next tick plan (and promote) again.
TEST(TierMigrator, ReadAfterAnIdleTickReplans) {
  TierFixture fx(/*cxl_pages=*/100);
  TierConfig config = fx.store.config();
  config.decay_every_ticks = 0;
  fx.store.WritePage(EvictionWrite(0), 0, fx.rng);
  fx.store.WritePage(EvictionWrite(1), 0, fx.rng);
  ASSERT_TRUE(fx.store.MigrateSlot(1, kTierCxl, kTierRemote, 0, fx.rng));
  EventQueue events;
  TierMigrator migrator(config, &events, &fx.store, /*seed=*/5);
  migrator.Tick(1000);  // slot 1 has heat 1 < 3: nothing to move
  events.RunUntil(1000 + kTierMigratePeriodNs - 1);
  ASSERT_EQ(fx.Count(counter::kTierPromotions), 0u);

  ReadOne(fx.store, 1, 2000, fx.rng);
  ReadOne(fx.store, 1, 3000, fx.rng);  // heat 3: promotion-worthy
  const SimTimeNs next = 1000 + kTierMigratePeriodNs;
  migrator.Tick(next);
  events.RunUntil(next + kTierMigratePeriodNs - 1);
  EXPECT_EQ(fx.store.TierOf(1), kTierCxl);
  EXPECT_EQ(fx.Count(counter::kTierPromotions), 1u);
}

// Same for a write: a first-touch placement that pushes the fast tier past
// its high watermark must make the next tick demote.
TEST(TierMigrator, WriteAfterAnIdleTickReplans) {
  TierFixture fx(/*cxl_pages=*/8);
  TierConfig config = fx.store.config();
  config.demote_high_watermark = 0.9;  // 7 pages
  config.demote_low_watermark = 0.6;   // 4 pages
  config.decay_every_ticks = 0;
  for (SwapSlot s = 0; s < 7; ++s) {
    fx.store.WritePage(EvictionWrite(s), 0, fx.rng);
  }
  EventQueue events;
  TierMigrator migrator(config, &events, &fx.store, /*seed=*/5);
  migrator.Tick(1000);  // 7 pages, not above the high watermark
  events.RunUntil(1000 + kTierMigratePeriodNs - 1);
  ASSERT_EQ(fx.Count(counter::kTierDemotions), 0u);

  fx.store.WritePage(EvictionWrite(7), 2000, fx.rng);  // 8 > 7
  const SimTimeNs next = 1000 + kTierMigratePeriodNs;
  migrator.Tick(next);
  events.RunUntil(next + kTierMigratePeriodNs - 1);
  EXPECT_EQ(fx.Count(counter::kTierDemotions), 4u);  // down to the low mark
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 4u);
}

// Idle ticks still count and decay: heat halves every decay_every_ticks
// ticks whether or not any tick in between planned.
TEST(TierMigrator, DecayKeepsItsCadenceAcrossIdleTicks) {
  TierFixture fx(/*cxl_pages=*/100);
  TierConfig config = fx.store.config();
  config.decay_every_ticks = 2;
  config.promote_threshold = 100;  // nothing ever qualifies: every tick idle
  fx.store.WritePage(EvictionWrite(0), 0, fx.rng);
  fx.store.WritePage(EvictionWrite(1), 0, fx.rng);
  ASSERT_TRUE(fx.store.MigrateSlot(1, kTierCxl, kTierRemote, 0, fx.rng));
  for (int i = 0; i < 3; ++i) {
    ReadOne(fx.store, 1, 100, fx.rng);
  }
  ASSERT_EQ(fx.store.AccessCount(kTierRemote, 1), 4u);
  EventQueue events;
  TierMigrator migrator(config, &events, &fx.store, /*seed=*/5);
  const uint32_t expected[] = {4, 2, 2, 1, 1, 0};
  for (size_t t = 0; t < std::size(expected); ++t) {
    migrator.Tick(static_cast<SimTimeNs>(t + 1) * kTierMigratePeriodNs);
    EXPECT_EQ(fx.store.AccessCount(kTierRemote, 1), expected[t])
        << "after tick " << t + 1;
  }
  EXPECT_EQ(migrator.ticks(), std::size(expected));
  EXPECT_TRUE(events.empty());
}

// --- Machine / Cluster integration ------------------------------------------

TEST(TieredMachine, DisabledMeansNoTierState) {
  MachineConfig config = LeapVmmConfig(1 << 12, /*seed=*/42);
  ASSERT_FALSE(config.tier.enabled);
  Machine machine(config);
  EXPECT_EQ(machine.tiered_store(), nullptr);
  const Pid pid = machine.CreateProcess(512);
  WarmUp(machine, pid, 1024);
  EXPECT_EQ(machine.counters().Get(counter::kTierFastHits), 0u);
  EXPECT_EQ(machine.counters().Get(counter::kTierSpills), 0u);
}

RunResult RunTieredMachine(bool migrator, uint64_t* promotions = nullptr) {
  MachineConfig config = LeapVmmConfig(1 << 12, /*seed=*/42);
  config.tier.enabled = true;
  config.tier.cxl_capacity_pages = 256;
  config.tier.migrator_enabled = migrator;
  Machine machine(config);
  const Pid pid = machine.CreateProcess(512);
  const SimTimeNs warm_end = WarmUp(machine, pid, 1024);
  ScrambledZipfStream stream(1024, 0.99, /*think_ns=*/0);
  RunConfig run;
  run.total_accesses = 20000;
  run.start_time_ns = warm_end + 10 * kNsPerMs;
  RunResult result = RunApp(machine, pid, stream, run);
  if (promotions != nullptr) {
    *promotions = machine.counters().Get(counter::kTierPromotions);
  }
  return result;
}

TEST(TieredMachine, MigratorPromotesUnderZipfLoad) {
  uint64_t promotions = 0;
  const RunResult result = RunTieredMachine(/*migrator=*/true, &promotions);
  EXPECT_TRUE(result.finished);
  EXPECT_GT(promotions, 0u);
}

TEST(TieredMachine, SameSeedRunsAreIdentical) {
  uint64_t promotions_a = 0;
  uint64_t promotions_b = 0;
  const RunResult a = RunTieredMachine(/*migrator=*/true, &promotions_a);
  const RunResult b = RunTieredMachine(/*migrator=*/true, &promotions_b);
  EXPECT_EQ(a.completion_ns, b.completion_ns);
  EXPECT_EQ(promotions_a, promotions_b);
  EXPECT_EQ(a.miss_latency.Percentile(0.99), b.miss_latency.Percentile(0.99));
}

TEST(TieredCluster, TierOccupancyAndCountersSurface) {
  ClusterConfig config;
  config.hosts = 2;
  config.nodes = 1;
  config.host = LeapVmmConfig(1024, /*seed=*/42);
  config.host.tier.enabled = true;
  config.host.tier.cxl_capacity_pages = 128;
  // Promotion-friendly knobs so the short run migrates: one re-fault
  // qualifies a page and heat never ages out.
  config.host.tier.promote_threshold = 2;
  config.host.tier.decay_every_ticks = 0;
  config.seed = 7;
  Cluster cluster(config);

  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<ClusterAppSpec> specs;
  SimTimeNs warm_end = 0;
  std::vector<Pid> pids;
  for (size_t h = 0; h < config.hosts; ++h) {
    const Pid pid = cluster.host(h).CreateProcess(512);
    pids.push_back(pid);
    warm_end = WarmUp(cluster.host(h), pid, 1024, warm_end);
    streams.push_back(
        std::make_unique<ScrambledZipfStream>(1024, 0.99, /*think_ns=*/0));
  }
  for (size_t h = 0; h < config.hosts; ++h) {
    RunConfig run;
    run.total_accesses = 5000;
    run.start_time_ns = warm_end + 10 * kNsPerMs;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  cluster.Run(std::move(specs));

  const ClusterStats stats = cluster.Stats();
  ASSERT_EQ(stats.tier_pages.size(), kTierCount);
  EXPECT_GT(stats.tier_pages[kTierCxl], 0u);
  EXPECT_GT(stats.tier_pages[kTierRemote], 0u);
  EXPECT_GT(stats.totals.Get(counter::kTierFastHits) +
                stats.totals.Get(counter::kTierSlowHits),
            0u);
  EXPECT_GT(stats.totals.Get(counter::kTierPromotions), 0u);
}

TEST(TieredCluster, UntieredClusterReportsNoTierPages) {
  ClusterConfig config;
  config.hosts = 1;
  config.nodes = 1;
  config.host = LeapVmmConfig(1024, /*seed=*/42);
  config.seed = 7;
  Cluster cluster(config);
  const Pid pid = cluster.host(0).CreateProcess(512);
  WarmUp(cluster.host(0), pid, 1024);
  const ClusterStats stats = cluster.Stats();
  EXPECT_TRUE(stats.tier_pages.empty());
}

}  // namespace
}  // namespace leap
