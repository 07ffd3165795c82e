#include "src/prefetch/profile_pass.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "src/container/flat_map.h"

namespace leap {

const ProfileHint* PrefetchProfile::FindRegion(uint64_t region) const {
  auto it = std::lower_bound(
      hints.begin(), hints.end(), region,
      [](const ProfileHint& h, uint64_t r) { return h.region < r; });
  if (it == hints.end() || it->region != region) return nullptr;
  return &*it;
}

std::string PrefetchProfile::Serialize() const {
  std::string out;
  out += "leap-prefetch-profile v1\n";
  char line[128];
  std::snprintf(line, sizeof(line), "region_shift %zu\n", region_shift);
  out += line;
  for (const ProfileHint& h : hints) {
    std::snprintf(line, sizeof(line), "%" PRIu64 " %" PRId64 " %u %u\n",
                  h.region, static_cast<int64_t>(h.stride), h.depth,
                  h.share_pct);
    out += line;
  }
  return out;
}

std::optional<PrefetchProfile> PrefetchProfile::Parse(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "leap-prefetch-profile v1") {
    return std::nullopt;
  }
  PrefetchProfile profile;
  size_t shift = 0;
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "region_shift %zu", &shift) != 1 ||
      shift >= 64) {
    return std::nullopt;
  }
  profile.region_shift = shift;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ProfileHint h;
    int64_t stride = 0;
    if (std::sscanf(line.c_str(), "%" SCNu64 " %" SCNd64 " %u %u", &h.region,
                    &stride, &h.depth, &h.share_pct) != 4) {
      return std::nullopt;
    }
    h.stride = stride;
    if (h.stride == 0 || h.depth == 0 || h.share_pct > 100) {
      return std::nullopt;
    }
    if (!profile.hints.empty() && profile.hints.back().region >= h.region) {
      return std::nullopt;  // must be sorted and region-unique
    }
    profile.hints.push_back(h);
  }
  return profile;
}

namespace {

// The dominant delta must cover at least this share of the region's deltas
// to become a hint (majority-style gate, like Leap's detector).
constexpr uint32_t kMinSharePct = 55;

// Whether `delta` continues a stream that strides by `stride`: the exact
// stride, or a small positive multiple of it (a fault stream skips pages
// that happen to be resident, so a stride-10 loop shows up as deltas of
// 10, 20, 30 ... in the trace).
bool MatchesStride(PageDelta delta, PageDelta stride) {
  if (stride == 0) return false;
  if (delta % stride != 0) return false;
  PageDelta units = delta / stride;
  return units >= 1 && units <= 4;
}

// Per-region delta census (pass 1). Counts live in an ordered map so the
// dominant-delta choice (and its smaller-delta tie-break) is independent
// of trace iteration order quirks.
struct RegionCensus {
  std::map<PageDelta, uint64_t> delta_counts;
  uint64_t total_deltas = 0;
};

// Per-region run bookkeeping for its dominant stride (pass 2), measured in
// stride units so resident-page skips extend a run instead of breaking it.
struct RegionRuns {
  PageDelta stride = 0;
  uint64_t current_units = 0;
  uint64_t run_count = 0;
  uint64_t unit_sum = 0;

  void Observe(PageDelta delta) {
    if (MatchesStride(delta, stride)) {
      current_units += static_cast<uint64_t>(delta / stride);
    } else {
      Flush();
    }
  }
  void Flush() {
    if (current_units > 1) {
      ++run_count;
      unit_sum += current_units;
    }
    current_units = 0;
  }
};

}  // namespace

PrefetchProfile BuildProfile(const FaultTrace& trace,
                             const ProfilePassConfig& config) {
  PrefetchProfile profile;
  profile.region_shift = config.region_shift;

  // Pass 1: per-pid deltas, censused by the region the stream was in
  // *before* each move (that is the region whose hint would have fired).
  // Per-pid history keeps interleaved tenants from polluting each other's
  // deltas, mirroring the per-pid state in the online policies.
  FlatMap<Pid, SwapSlot> last_slot;
  // Ordered so hint emission below is naturally sorted by region.
  std::map<uint64_t, RegionCensus> regions;

  for (const FaultRecord& rec : trace) {
    if (rec.slot == kInvalidSlot) continue;
    SwapSlot* prev = last_slot.Find(rec.pid);
    if (prev != nullptr) {
      PageDelta delta = static_cast<PageDelta>(rec.slot - *prev);
      if (delta != 0) {
        RegionCensus& census = regions[*prev >> config.region_shift];
        ++census.delta_counts[delta];
        ++census.total_deltas;
      }
      *prev = rec.slot;
    } else {
      last_slot.Emplace(rec.pid, rec.slot);
    }
  }

  // Dominant stride per region: highest raw count (ties -> smaller delta
  // via map order); its share counts every stride-multiple delta as
  // matching.
  std::map<uint64_t, RegionRuns> runs;
  std::map<uint64_t, uint32_t> shares;
  for (auto& [region, census] : regions) {
    if (census.total_deltas < config.min_samples) continue;
    PageDelta best_delta = 0;
    uint64_t best_count = 0;
    for (const auto& [delta, count] : census.delta_counts) {
      if (count > best_count) {
        best_count = count;
        best_delta = delta;
      }
    }
    uint64_t matching = 0;
    for (const auto& [delta, count] : census.delta_counts) {
      if (MatchesStride(delta, best_delta)) matching += count;
    }
    uint32_t share_pct =
        static_cast<uint32_t>(100 * matching / census.total_deltas);
    if (share_pct < kMinSharePct) continue;
    runs[region].stride = best_delta;
    shares[region] = share_pct;
  }
  if (runs.empty()) return profile;

  // Pass 2: run lengths (in stride units) for each surviving region's
  // dominant stride - the profiled prefetch distance.
  last_slot = FlatMap<Pid, SwapSlot>();
  for (const FaultRecord& rec : trace) {
    if (rec.slot == kInvalidSlot) continue;
    SwapSlot* prev = last_slot.Find(rec.pid);
    if (prev != nullptr) {
      PageDelta delta = static_cast<PageDelta>(rec.slot - *prev);
      if (delta != 0) {
        auto it = runs.find(*prev >> config.region_shift);
        if (it != runs.end()) it->second.Observe(delta);
      }
      *prev = rec.slot;
    } else {
      last_slot.Emplace(rec.pid, rec.slot);
    }
  }

  for (auto& [region, r] : runs) {
    r.Flush();
    uint64_t mean_units = r.run_count > 0 ? r.unit_sum / r.run_count : 1;
    uint32_t depth = static_cast<uint32_t>(
        std::clamp<uint64_t>(mean_units, 1, config.max_depth));
    profile.hints.push_back(
        ProfileHint{region, r.stride, depth, shares[region]});
  }
  return profile;
}

}  // namespace leap
