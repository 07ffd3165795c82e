// Tiered far memory (src/tier/): CXL-like store, tier-aware routing with
// per-slot residency, per-tier recency and heat (checked against a
// reference model), the background hot/cold migrator, and the
// disabled-path guarantee (tier off => no tier state, identical runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

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

// --- TieredStore: per-tier recency and heat ---------------------------------
//
// Each tier's recency list and heat counts live in the store's per-slot
// records; these cases pin the list and count semantics the migrator's
// scans read.

void Write(TierFixture& fx, SwapSlot slot) {
  fx.store.WritePage(EvictionWrite(slot), 0, fx.rng);
}

std::vector<SwapSlot> Coldest(const TieredStore& store, size_t tier,
                              size_t n) {
  std::vector<SwapSlot> out;
  store.ColdestOf(tier, n, out);
  return out;
}

std::vector<SwapSlot> Hottest(const TieredStore& store, size_t tier,
                              size_t n) {
  std::vector<SwapSlot> out;
  store.HottestOf(tier, n, out);
  return out;
}

TEST(TieredStore, ColdestIsLeastRecentlyTouched) {
  TierFixture fx(/*cxl_pages=*/8);
  Write(fx, 1);
  Write(fx, 2);
  Write(fx, 3);
  EXPECT_EQ(Coldest(fx.store, kTierCxl, 1), (std::vector<SwapSlot>{1}));
  ReadOne(fx.store, 1, 100, fx.rng);  // re-touch warms it
  EXPECT_EQ(Coldest(fx.store, kTierCxl, 1), (std::vector<SwapSlot>{2}));
  Write(fx, 2);  // a rewrite in place warms it too
  EXPECT_EQ(Coldest(fx.store, kTierCxl, 3), (std::vector<SwapSlot>{3, 1, 2}));
}

TEST(TieredStore, MigrationTakesTheColdestOffItsList) {
  TierFixture fx(/*cxl_pages=*/8);
  Write(fx, 1);
  Write(fx, 2);
  ASSERT_TRUE(fx.store.MigrateSlot(1, kTierCxl, kTierRemote, 0, fx.rng));
  EXPECT_EQ(Coldest(fx.store, kTierCxl, 8), (std::vector<SwapSlot>{2}));
  ASSERT_TRUE(fx.store.MigrateSlot(2, kTierCxl, kTierRemote, 0, fx.rng));
  EXPECT_TRUE(Coldest(fx.store, kTierCxl, 8).empty());
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 0u);
  // Arrivals link at the hot end of the destination list.
  EXPECT_EQ(Coldest(fx.store, kTierRemote, 8), (std::vector<SwapSlot>{1, 2}));
}

TEST(TieredStore, MigratingOneSlotLeavesTheOthersInOrder) {
  TierFixture fx(/*cxl_pages=*/8);
  Write(fx, 1);
  Write(fx, 2);
  Write(fx, 3);
  EXPECT_TRUE(fx.store.MigrateSlot(2, kTierCxl, kTierRemote, 0, fx.rng));
  EXPECT_FALSE(fx.store.MigrateSlot(2, kTierCxl, kTierRemote, 0, fx.rng));
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 2u);
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 2), 0u);
  EXPECT_EQ(Coldest(fx.store, kTierCxl, 8), (std::vector<SwapSlot>{1, 3}));
}

TEST(TieredStore, ColdestOfIsOrderedAndNonDestructive) {
  TierFixture fx(/*cxl_pages=*/8);
  for (SwapSlot s = 0; s < 5; ++s) {
    Write(fx, s);
  }
  std::vector<SwapSlot> coldest = {99};  // stale contents are replaced
  fx.store.ColdestOf(kTierCxl, 3, coldest);
  EXPECT_EQ(coldest, (std::vector<SwapSlot>{0, 1, 2}));
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 5u);
}

TEST(TieredStore, HeatIsSeededAtOneAndCountsTouches) {
  TierFixture fx(/*cxl_pages=*/8);
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 1), 0u);  // unknown slot
  Write(fx, 1);
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 1), 1u);  // arrival seeds 1
  ReadOne(fx.store, 1, 100, fx.rng);
  Write(fx, 1);
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 1), 3u);
  EXPECT_EQ(fx.store.AccessCount(kTierRemote, 1), 0u);  // other tiers: 0
}

TEST(TieredStore, DecayHalvesEveryCount) {
  TierFixture fx(/*cxl_pages=*/1);
  for (int t = 0; t < 5; ++t) {
    Write(fx, 1);  // cxl
  }
  Write(fx, 2);  // spills to remote
  fx.store.DecayCounts();
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 1), 2u);     // 5 >> 1
  EXPECT_EQ(fx.store.AccessCount(kTierRemote, 2), 0u);  // 1 >> 1: cold
  fx.store.DecayCounts();
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 1), 1u);
  // Decay leaves residency and order alone.
  EXPECT_EQ(fx.store.TierOf(2), kTierRemote);
  EXPECT_EQ(Coldest(fx.store, kTierRemote, 8), (std::vector<SwapSlot>{2}));
}

TEST(TieredStore, HeatRestartsOnEveryTierChange) {
  TierFixture fx(/*cxl_pages=*/8);
  for (int t = 0; t < 10; ++t) {
    Write(fx, 1);
  }
  ASSERT_EQ(fx.store.AccessCount(kTierCxl, 1), 10u);
  ASSERT_TRUE(fx.store.MigrateSlot(1, kTierCxl, kTierRemote, 0, fx.rng));
  EXPECT_EQ(fx.store.AccessCount(kTierRemote, 1), 1u);
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 1), 0u);
  Write(fx, 2);  // a fresh slot starts at 1 as well
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 2), 1u);
  ASSERT_TRUE(fx.store.MigrateSlot(1, kTierRemote, kTierCxl, 0, fx.rng));
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 1), 1u);
}

TEST(TieredStore, HottestOfIsRecencyOrderNonDestructive) {
  TierFixture fx(/*cxl_pages=*/8);
  for (SwapSlot s = 0; s < 5; ++s) {
    Write(fx, s);
  }
  ReadOne(fx.store, 1, 100, fx.rng);  // 1 becomes most recent
  std::vector<SwapSlot> hottest = {99, 98, 97, 96};  // stale contents
  fx.store.HottestOf(kTierCxl, 3, hottest);
  EXPECT_EQ(hottest, (std::vector<SwapSlot>{1, 4, 3}));
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 5u);
}

TEST(TieredStore, SameOperationsGiveTheSameSelection) {
  // Two stores driven by the same operation sequence agree exactly on the
  // hot/cold boundary - the property the migrator's page selection rests
  // on.
  TierFixture a(/*cxl_pages=*/4);
  TierFixture b(/*cxl_pages=*/4);
  for (const SwapSlot slot : {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}) {
    Write(a, slot);
    Write(b, slot);
  }
  a.store.DecayCounts();
  b.store.DecayCounts();
  for (const size_t tier : {kTierCxl, kTierRemote}) {
    EXPECT_EQ(Coldest(a.store, tier, 4), Coldest(b.store, tier, 4));
    EXPECT_EQ(Hottest(a.store, tier, 4), Hottest(b.store, tier, 4));
  }
  EXPECT_EQ(a.store.AccessCount(kTierCxl, 5),
            b.store.AccessCount(kTierCxl, 5));
  EXPECT_EQ(a.store.AccessCount(kTierCxl, 5), 1u);  // 3 touches >> 1
}

TEST(TieredStore, HeatSaturatesAtCap) {
  TierFixture fx(/*cxl_pages=*/8);
  Write(fx, 1);
  for (int t = 0; t < 70000; ++t) {
    ReadOne(fx.store, 1, 100, fx.rng, IoClass::kPrefetch);
  }
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 1), 0xFFFFu);
  fx.store.DecayCounts();
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 1), 0x7FFFu);
}

// The records are direct-indexed by slot and grow only when a slot
// arrives: slots past the end read as unknown, and no query grows them.
TEST(TieredStore, SlotsPastTheEndReadAsAbsent) {
  TierFixture fx(/*cxl_pages=*/8);
  EXPECT_EQ(fx.store.TierOf(1000), kTierCount);  // empty table
  Write(fx, 3);
  EXPECT_EQ(fx.store.TierOf(1000), kTierCount);
  EXPECT_EQ(fx.store.TierOf(kInvalidSlot), kTierCount);
  for (size_t tier = 0; tier < kTierCount; ++tier) {
    EXPECT_EQ(fx.store.AccessCount(tier, 1000), 0u);
    EXPECT_FALSE(fx.store.MigrateSlot(1000, tier, kTierSsd, 0, fx.rng));
  }
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 1u);
  EXPECT_EQ(Coldest(fx.store, kTierCxl, 8), (std::vector<SwapSlot>{3}));
}

TEST(TieredStore, EmptiedTierRefillsInItsNewOrder) {
  TierFixture fx(/*cxl_pages=*/8);
  for (SwapSlot s = 0; s < 8; ++s) {
    Write(fx, s);
  }
  for (SwapSlot s = 0; s < 8; ++s) {
    ASSERT_TRUE(fx.store.MigrateSlot(s, kTierCxl, kTierRemote, 0, fx.rng));
  }
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 0u);
  EXPECT_TRUE(Hottest(fx.store, kTierCxl, 8).empty());
  // Old slots come back as fresh arrivals, in the new order.
  for (const SwapSlot s : {5, 2, 7}) {
    ASSERT_TRUE(fx.store.MigrateSlot(s, kTierRemote, kTierCxl, 0, fx.rng));
  }
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 3u);
  EXPECT_EQ(fx.store.TierPages(kTierRemote), 5u);
  EXPECT_EQ(fx.store.AccessCount(kTierCxl, 2), 1u);
  EXPECT_EQ(Coldest(fx.store, kTierCxl, 8), (std::vector<SwapSlot>{5, 2, 7}));
}

TEST(TieredStore, RejectsSlotsTheLinksCannotIndex) {
  TierFixture fx(/*cxl_pages=*/8);
  EXPECT_THROW(Write(fx, kNilIndex), std::out_of_range);
  EXPECT_THROW(ReadOne(fx.store, SwapSlot{1} << 40, 0, fx.rng),
               std::out_of_range);
  EXPECT_EQ(fx.store.TierOf(kNilIndex), kTierCount);
  EXPECT_EQ(fx.store.TierPages(kTierCxl), 0u);
  EXPECT_EQ(fx.store.TierPages(kTierRemote), 0u);
  EXPECT_EQ(fx.Count(counter::kTierSpills), 0u);
}

// Reference model of the store's bookkeeping: residency, heat and one
// recency list per tier (front = most recent), kept the slow, obvious way.
struct ReferenceTiers {
  static constexpr uint32_t kHeatMax = 0xFFFF;

  explicit ReferenceTiers(size_t cxl_pages) : cxl_capacity(cxl_pages) {}

  size_t TierOf(SwapSlot slot) const {
    const auto it = tier.find(slot);
    return it == tier.end() ? kTierCount : it->second;
  }
  void Arrive(SwapSlot slot, size_t to) {
    tier[slot] = to;
    heat[slot] = 1;
    lists[to].insert(lists[to].begin(), slot);
  }
  void Unlink(SwapSlot slot) {
    auto& list = lists[tier[slot]];
    list.erase(std::find(list.begin(), list.end(), slot));
  }
  void Touch(SwapSlot slot) {
    heat[slot] = std::min(heat[slot] + 1, kHeatMax);
    Unlink(slot);
    lists[tier[slot]].insert(lists[tier[slot]].begin(), slot);
  }
  void Write(SwapSlot slot) {
    if (TierOf(slot) != kTierCount) {
      Touch(slot);
    } else {
      Arrive(slot, lists[kTierCxl].size() < cxl_capacity ? kTierCxl
                                                         : kTierRemote);
    }
  }
  void Read(SwapSlot slot) {
    if (TierOf(slot) != kTierCount) {
      Touch(slot);
    } else {
      Arrive(slot, kTierRemote);
    }
  }
  bool Migrate(SwapSlot slot, size_t from, size_t to) {
    if (from >= kTierCount || TierOf(slot) != from || from == to) {
      return false;
    }
    if (to == kTierCxl && lists[kTierCxl].size() >= cxl_capacity) {
      ++full_refusals;
      return false;
    }
    Unlink(slot);
    Arrive(slot, to);
    return true;
  }
  void Decay() {
    for (auto& [slot, h] : heat) {
      h >>= 1;
    }
  }

  size_t cxl_capacity;
  size_t full_refusals = 0;  // promotions refused by a full fast tier
  std::map<SwapSlot, size_t> tier;
  std::map<SwapSlot, uint32_t> heat;
  std::array<std::vector<SwapSlot>, kTierCount> lists;
};

void ExpectMatchesReference(const TieredStore& store,
                            const ReferenceTiers& ref, SwapSlot slot_range,
                            size_t op) {
  for (size_t tier = 0; tier < kTierCount; ++tier) {
    const std::vector<SwapSlot>& list = ref.lists[tier];
    ASSERT_EQ(store.TierPages(tier), list.size()) << "op " << op;
    EXPECT_EQ(Hottest(store, tier, list.size() + 1), list) << "op " << op;
    const std::vector<SwapSlot> reversed(list.rbegin(), list.rend());
    EXPECT_EQ(Coldest(store, tier, list.size() + 1), reversed)
        << "op " << op;
    // A short scan is the matching prefix.
    const size_t n = std::min<size_t>(3, list.size());
    EXPECT_EQ(Coldest(store, tier, 3),
              std::vector<SwapSlot>(reversed.begin(), reversed.begin() + n))
        << "op " << op;
  }
  for (SwapSlot slot = 0; slot < slot_range; ++slot) {
    const size_t tier = ref.TierOf(slot);
    ASSERT_EQ(store.TierOf(slot), tier) << "slot " << slot << " op " << op;
    for (size_t t = 0; t < kTierCount; ++t) {
      const uint32_t want = t == tier ? ref.heat.at(slot) : 0;
      ASSERT_EQ(store.AccessCount(t, slot), want)
          << "slot " << slot << " tier " << t << " op " << op;
    }
  }
}

TEST(TieredStore, RandomOperationsMatchAReferenceModel) {
  constexpr SwapSlot kSlots = 48;
  constexpr size_t kCxlPages = 8;
  TierFixture fx(kCxlPages);
  ReferenceTiers ref(kCxlPages);
  Rng ops(2024);
  SimTimeNs now = 0;
  for (size_t op = 0; op < 4000; ++op) {
    now += 100;
    const SwapSlot slot = ops.NextU64(kSlots);
    const uint64_t kind = ops.NextU64(16);
    if (kind < 6) {
      fx.store.WritePage(EvictionWrite(slot), now, fx.rng);
      ref.Write(slot);
    } else if (kind < 11) {
      // A two-page batch: each page is routed and touched in order.
      const SwapSlot other = ops.NextU64(kSlots);
      const IoRequest reqs[2] = {DemandRead(slot, 1, now),
                                 DemandRead(other, 1, now)};
      SimTimeNs ready[2] = {};
      fx.store.ReadPages(reqs, now, fx.rng, ready);
      ref.Read(slot);
      ref.Read(other);
    } else if (kind < 15) {
      const size_t from = ops.NextU64(kTierCount);
      const size_t to = ops.NextU64(kTierCount);
      EXPECT_EQ(fx.store.MigrateSlot(slot, from, to, now, fx.rng),
                ref.Migrate(slot, from, to))
          << "op " << op;
    } else {
      fx.store.DecayCounts();
      ref.Decay();
    }
    ExpectMatchesReference(fx.store, ref, kSlots + 2, op);
    if (HasFatalFailure()) {
      return;
    }
  }
  // The walk must have exercised every tier and a full fast tier.
  EXPECT_GT(ref.full_refusals, 0u);
  EXPECT_GT(fx.store.TierPages(kTierSsd), 0u);
  EXPECT_GT(fx.Count(counter::kTierSpills), 0u);
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
