// Configuration for the tiered far-memory hierarchy (src/tier/README.md).
//
// The hierarchy below local DRAM is an ordered set of tiers: a CXL-like
// direct-attached tier (fast, capacity-bounded), the fabric remote pool,
// and local SSD. `TierConfig::enabled=false` (the default) means OFF in
// the null-pointer-gating sense every optional subsystem here follows: no
// TieredStore or TierMigrator is constructed, no RNG is drawn, and runs
// are bit-identical to a build without src/tier/.
#ifndef LEAP_SRC_TIER_TIER_CONFIG_H_
#define LEAP_SRC_TIER_TIER_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/types.h"

namespace leap {

// Tier indices below DRAM, fastest first. These are the TieredStore's
// per-slot tier byte and index its tier lists and the per-tier occupancy
// vectors in ClusterStats and StatsSample.
inline constexpr size_t kTierCxl = 0;     // direct-attached memory-mode CXL
inline constexpr size_t kTierRemote = 1;  // fabric remote (donor pool)
inline constexpr size_t kTierSsd = 2;     // local flash, the cold floor
inline constexpr size_t kTierCount = 3;

// Background migrator tick period: one kswapd-style pass per millisecond.
inline constexpr SimTimeNs kTierMigratePeriodNs = 1 * kNsPerMs;

constexpr const char* TierName(size_t tier) {
  switch (tier) {
    case kTierCxl: return "cxl";
    case kTierRemote: return "remote";
    case kTierSsd: return "ssd";
  }
  return "unknown";
}

struct TierConfig {
  // Master switch. False = no tier state exists anywhere (see header).
  bool enabled = false;

  // Capacity of the CXL tier in 4KB pages. New swap-outs fill this tier
  // first; when full they spill to the fabric remote tier (counted as
  // tier_spills).
  size_t cxl_capacity_pages = 8 * 1024;

  // --- background migrator (kswapd-style tick on the shared queue) ------
  bool migrator_enabled = true;
  // Max pages considered for promotion and for demotion per tick.
  size_t migrate_batch = 64;
  // A lower-tier page is promotion-worthy once its heat (the TieredStore's
  // per-slot u16 count: 1 on arrival at a tier, +1 per touch, saturating
  // at 0xFFFF, halved on decay) reaches this, and a fast-tier page below
  // it is fair game for demotion. 3 means "touched at least twice since
  // arriving on the tier" - one re-reference is not yet a trend.
  uint32_t promote_threshold = 3;
  // Access counts halve every this many ticks (0 = never decay).
  uint32_t decay_every_ticks = 8;
  // Demotion hysteresis on the CXL tier: start demoting above high, stop
  // below low; promotion also stops at high so the two never thrash.
  double demote_high_watermark = 0.98;
  double demote_low_watermark = 0.92;
  // Cold-floor demotion: up to this many fully-decayed (count==0) remote
  // pages per tick sink to the SSD tier. 0 disables (default), keeping
  // the remote tier the cold floor.
  size_t remote_cold_demote_batch = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_TIER_TIER_CONFIG_H_
