// O(1) LRU list with per-key access counts: the tiered store's per-tier
// recency and heat, keyed by swap slot.
//
// Demotion dequeues from the cold end, like the kernel walking the inactive
// list; promotion reads the hot end and the counts. Lists that need no
// counts (the resident LRU, the swap cache's lists) are threaded through
// their own records instead (src/container/index_list.h).
//
// Implemented as an IndexList threaded through a slab of pooled nodes
// (indices, not pointers) with a direct-indexed key index
// (src/container/dense_index.h): keys are dense non-negative integers, so a
// Touch in steady state is one indexed load and a few slab stores - no
// hashing, no per-operation allocation, no pointer-chased std::list nodes.
// The index grows to the largest key ever inserted; operations on keys past
// its end read as absent. No operation hands out a pointer. Kept
// header-only: it is a small template over integer key types.
#ifndef LEAP_SRC_MEM_LRU_LIST_H_
#define LEAP_SRC_MEM_LRU_LIST_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "src/container/dense_index.h"
#include "src/container/index_list.h"

namespace leap {

template <typename Key>
class LruList {
  static_assert(std::is_integral_v<Key>,
                "LruList indexes its nodes by key: keys are dense integers");

 public:
  // Inserts or refreshes `key` as most-recently-used. Each Touch bumps the
  // entry's access count (saturating), the hotness signal the tier
  // migrator's promotion scan reads via AccessCount/DecayCounts.
  void Touch(Key key) {
    uint32_t& slot = GrowToFit(index_, Index(key), kNilIndex);
    if (slot != kNilIndex) {
      const uint32_t node = slot;
      if (nodes_[node].count < kCountMax) {
        ++nodes_[node].count;
      }
      list_.Touch(nodes_, node);
      return;
    }
    slot = NewNode(key);
    list_.PushFront(nodes_, slot);
  }

  // Inserts `key` as most-recently-used only if absent (FIFO position is
  // set once); returns true when inserted.
  bool Insert(Key key) {
    uint32_t& slot = GrowToFit(index_, Index(key), kNilIndex);
    if (slot != kNilIndex) {
      return false;
    }
    slot = NewNode(key);
    list_.PushFront(nodes_, slot);
    return true;
  }

  // Removes `key`; returns true if it was present.
  bool Remove(Key key) {
    const uint32_t node = NodeOf(key);
    if (node == kNilIndex) {
      return false;
    }
    FreeNode(node);
    return true;
  }

  // Least-recently-used key, without removing it.
  std::optional<Key> Coldest() const {
    if (list_.empty()) {
      return std::nullopt;
    }
    return nodes_[list_.Coldest()].key;
  }

  // Removes and returns the LRU key.
  std::optional<Key> PopColdest() {
    const std::optional<Key> key = Coldest();
    if (key.has_value()) {
      FreeNode(list_.Coldest());
    }
    return key;
  }

  // Replaces `out` with the n hottest keys, hottest first (the tier
  // migrator's promotion scan walks the recency end and filters by
  // AccessCount). The caller owns `out`, so a reused buffer keeps periodic
  // scans allocation-free.
  void HottestN(size_t n, std::vector<Key>& out) const {
    out.clear();
    for (uint32_t idx = list_.Hottest(); idx != kNilIndex && out.size() < n;
         idx = nodes_[idx].links.next) {
      out.push_back(nodes_[idx].key);
    }
  }

  // Replaces `out` with the n coldest keys, coldest first (for batch
  // reclaim scans).
  void ColdestN(size_t n, std::vector<Key>& out) const {
    out.clear();
    for (uint32_t idx = list_.Coldest(); idx != kNilIndex && out.size() < n;
         idx = nodes_[idx].links.prev) {
      out.push_back(nodes_[idx].key);
    }
  }

  bool Contains(Key key) const { return NodeOf(key) != kNilIndex; }
  size_t size() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

  // Accesses recorded for `key` since insertion (Insert/first Touch = 1;
  // each later Touch adds 1, saturating at kCountMax). 0 when absent.
  uint32_t AccessCount(Key key) const {
    const uint32_t node = NodeOf(key);
    return node == kNilIndex ? 0 : nodes_[node].count;
  }

  // Halves every entry's access count (floor division) - the migrator's
  // periodic aging step, the same exponential decay HeMem-style kswapd
  // loops apply so stale heat drains instead of accumulating forever.
  // List order is untouched.
  void DecayCounts() {
    for (uint32_t idx = list_.Hottest(); idx != kNilIndex;
         idx = nodes_[idx].links.next) {
      nodes_[idx].count >>= 1;
    }
  }

  // Drops all entries; the node slab and the index are recycled, not
  // deallocated. Only the keys it unlinks are reset, so the cost is the
  // list's length, not the index's.
  void Clear() {
    while (!list_.empty()) {
      FreeNode(list_.Coldest());
    }
  }

 private:
  static constexpr uint32_t kCountMax = 0xFFFF;

  struct Node {
    Key key{};
    ListLinks links;
    uint32_t count = 0;  // saturating access count (hot/cold signal)
  };

  static size_t Index(Key key) { return static_cast<size_t>(key); }

  // The key's node, or kNilIndex when absent (including past the index's
  // end).
  uint32_t NodeOf(Key key) const {
    return ReadOr(index_, Index(key), kNilIndex);
  }

  uint32_t NewNode(Key key) {
    uint32_t idx;
    if (free_.empty()) {
      idx = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(Node{});
    } else {
      idx = free_.back();
      free_.pop_back();
    }
    nodes_[idx].key = key;
    nodes_[idx].count = 1;  // recycled slots must not inherit stale heat
    return idx;
  }

  // Unlinks a listed node, clears its key's index entry and returns the
  // node to the free pool.
  void FreeNode(uint32_t idx) {
    index_[Index(nodes_[idx].key)] = kNilIndex;
    list_.Remove(nodes_, idx);
    nodes_[idx].key = Key{};
    nodes_[idx].count = 0;
    free_.push_back(idx);
  }

  std::vector<Node> nodes_;      // slab; front of list = hottest
  std::vector<uint32_t> free_;   // recycled node indices
  std::vector<uint32_t> index_;  // key -> node, kNilIndex when absent
  IndexList<Node, &Node::links> list_;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_LRU_LIST_H_
