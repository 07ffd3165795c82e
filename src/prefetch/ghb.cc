#include "src/prefetch/ghb.h"

#include <algorithm>

namespace leap {
namespace {

constexpr size_t kDegree = 4;     // deltas replayed per prediction
constexpr size_t kMaxChains = 2;  // correlation chains followed per fault

}  // namespace

GhbPrefetcher::GhbPrefetcher(const GhbConfig& config) : config_(config) {
  buffer_.reserve(config_.buffer_size);
}

CandidateVec GhbPrefetcher::OnFault(const FaultContext& ctx) {
  const Pid pid = ctx.pid;
  const SwapSlot slot = ctx.slot;
  CandidateVec candidates;

  SwapSlot* last = last_addr_.Find(pid);
  if (last == nullptr) {
    last_addr_[pid] = slot;
    return candidates;
  }
  const PageDelta delta =
      static_cast<PageDelta>(slot) - static_cast<PageDelta>(*last);
  *last = slot;

  const PageDelta* prev_it = last_delta_.Find(pid);
  const bool have_pair = prev_it != nullptr;
  const PageDelta prev_delta = have_pair ? *prev_it : 0;
  last_delta_[pid] = delta;

  // Record the new delta into the global buffer, linking same-signature
  // occurrences (signature = the delta pair that PRECEDED this entry).
  size_t pos = head_;
  Entry entry;
  entry.delta = delta;
  if (have_pair) {
    const uint64_t sig = Signature(prev_delta, delta);
    const size_t* idx = index_.Find(sig);
    entry.prev = idx == nullptr ? kNoLink : *idx;
    index_[sig] = pos;
  }
  if (buffer_.size() < config_.buffer_size) {
    buffer_.push_back(entry);
  } else {
    buffer_[head_] = entry;
    full_ = true;
  }
  head_ = (head_ + 1) % config_.buffer_size;

  if (!have_pair) {
    return candidates;
  }

  // Correlate: find past occurrences of the current delta pair and replay
  // the deltas that followed them.
  const uint64_t sig = Signature(prev_delta, delta);
  const size_t* idx = index_.Find(sig);
  if (idx == nullptr) {
    return candidates;
  }
  size_t chains = 0;
  size_t link = *idx;
  while (link != kNoLink && chains < kMaxChains &&
         !candidates.full()) {
    // Replay up to kDegree deltas following position `link`.
    int64_t addr = static_cast<int64_t>(slot);
    for (size_t step = 1; step <= kDegree; ++step) {
      const size_t next_pos = (link + step) % config_.buffer_size;
      if (next_pos == head_ || (next_pos >= buffer_.size() && !full_)) {
        break;
      }
      if (next_pos >= buffer_.size()) {
        break;
      }
      addr += buffer_[next_pos].delta;
      if (addr < 0 || candidates.full()) {
        break;
      }
      candidates.push_back(static_cast<SwapSlot>(addr));
    }
    if (link >= buffer_.size()) {
      break;
    }
    const size_t next_link = buffer_[link].prev;
    if (next_link == link) {
      break;
    }
    link = next_link;
    ++chains;
  }
  // Dedup while preserving order.
  CandidateVec unique;
  for (SwapSlot s : candidates) {
    if (s != slot &&
        std::find(unique.begin(), unique.end(), s) == unique.end()) {
      unique.push_back(s);
    }
  }
  return unique;
}

}  // namespace leap
