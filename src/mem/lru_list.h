// O(1) LRU list, the reclaim order for resident pages (keyed by vpn) and
// the machine's swap-cache queues (keyed by slot).
//
// Reclaim dequeues from the cold end, exactly like the kernel walking the
// inactive list. Used with Insert only, it is a FIFO in insertion order:
// kswapd's retire and TTL queues. Implemented as an intrusive doubly-
// linked list threaded through a slab of pooled nodes (indices, not
// pointers) with a direct-indexed key index (src/container/dense_index.h):
// keys are vpns or swap slots, dense non-negative integers, so a Touch in
// steady state is one indexed load and a few slab stores - no hashing, no
// per-operation allocation, no pointer-chased std::list nodes. The index
// grows to the largest key ever inserted; operations on keys past its end
// read as absent. No operation hands out a pointer. Kept header-only: it is
// a small template used with a couple of integer key types.
#ifndef LEAP_SRC_MEM_LRU_LIST_H_
#define LEAP_SRC_MEM_LRU_LIST_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "src/container/dense_index.h"

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
    uint32_t& slot = GrowToFit(index_, Index(key), kNil);
    if (slot != kNil) {
      const uint32_t node = slot;
      if (nodes_[node].count < kCountMax) {
        ++nodes_[node].count;
      }
      Unlink(node);
      LinkFront(node);
      return;
    }
    slot = NewNode(key);
    LinkFront(slot);
  }

  // Inserts `key` as most-recently-used only if absent (FIFO position is
  // set once); returns true when inserted.
  bool Insert(Key key) {
    uint32_t& slot = GrowToFit(index_, Index(key), kNil);
    if (slot != kNil) {
      return false;
    }
    slot = NewNode(key);
    LinkFront(slot);
    return true;
  }

  // Removes `key`; returns true if it was present.
  bool Remove(Key key) {
    const uint32_t node = NodeOf(key);
    if (node == kNil) {
      return false;
    }
    index_[Index(key)] = kNil;
    Unlink(node);
    FreeNode(node);
    return true;
  }

  // Least-recently-used key, without removing it.
  std::optional<Key> Coldest() const {
    if (tail_ == kNil) {
      return std::nullopt;
    }
    return nodes_[tail_].key;
  }

  // Removes and returns the LRU key.
  std::optional<Key> PopColdest() {
    if (tail_ == kNil) {
      return std::nullopt;
    }
    const uint32_t idx = tail_;
    const Key key = nodes_[idx].key;
    index_[Index(key)] = kNil;
    Unlink(idx);
    FreeNode(idx);
    return key;
  }

  // Replaces `out` with the n hottest keys, hottest first (the tier
  // migrator's promotion scan walks the recency end and filters by
  // AccessCount). The caller owns `out`, so a reused buffer keeps periodic
  // scans allocation-free.
  void HottestN(size_t n, std::vector<Key>& out) const {
    out.clear();
    for (uint32_t idx = head_; idx != kNil && out.size() < n;
         idx = nodes_[idx].next) {
      out.push_back(nodes_[idx].key);
    }
  }

  // Replaces `out` with the n coldest keys, coldest first (for batch
  // reclaim scans).
  void ColdestN(size_t n, std::vector<Key>& out) const {
    out.clear();
    for (uint32_t idx = tail_; idx != kNil && out.size() < n;
         idx = nodes_[idx].prev) {
      out.push_back(nodes_[idx].key);
    }
  }

  bool Contains(Key key) const { return NodeOf(key) != kNil; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Accesses recorded for `key` since insertion (Insert/first Touch = 1;
  // each later Touch adds 1, saturating at kCountMax). 0 when absent.
  uint32_t AccessCount(Key key) const {
    const uint32_t node = NodeOf(key);
    return node == kNil ? 0 : nodes_[node].count;
  }

  // Halves every entry's access count (floor division) - the migrator's
  // periodic aging step, the same exponential decay HeMem-style kswapd
  // loops apply so stale heat drains instead of accumulating forever.
  // List order is untouched.
  void DecayCounts() {
    for (uint32_t idx = head_; idx != kNil; idx = nodes_[idx].next) {
      nodes_[idx].count >>= 1;
    }
  }

  // Drops all entries; the node slab and the index are recycled, not
  // deallocated. Only the keys it unlinks are reset, so the cost is the
  // list's length, not the index's.
  void Clear() {
    for (uint32_t idx = head_; idx != kNil;) {
      const uint32_t next = nodes_[idx].next;
      index_[Index(nodes_[idx].key)] = kNil;
      FreeNode(idx);
      idx = next;
    }
    head_ = kNil;
    tail_ = kNil;
    size_ = 0;
  }

 private:
  static constexpr uint32_t kNil = static_cast<uint32_t>(-1);
  static constexpr uint32_t kCountMax = 0xFFFF;

  struct Node {
    Key key{};
    uint32_t prev = kNil;
    uint32_t next = kNil;
    uint32_t count = 0;  // saturating access count (hot/cold signal)
  };

  static size_t Index(Key key) { return static_cast<size_t>(key); }

  // The key's node, or kNil when absent (including past the index's end).
  uint32_t NodeOf(Key key) const { return ReadOr(index_, Index(key), kNil); }

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

  // Returns a node slot to the free pool; list membership (and size_) is
  // Unlink's business.
  void FreeNode(uint32_t idx) {
    nodes_[idx].key = Key{};
    nodes_[idx].count = 0;
    free_.push_back(idx);
  }

  void LinkFront(uint32_t idx) {
    nodes_[idx].prev = kNil;
    nodes_[idx].next = head_;
    if (head_ != kNil) {
      nodes_[head_].prev = idx;
    }
    head_ = idx;
    if (tail_ == kNil) {
      tail_ = idx;
    }
    ++size_;
  }

  void Unlink(uint32_t idx) {
    const uint32_t prev = nodes_[idx].prev;
    const uint32_t next = nodes_[idx].next;
    if (prev != kNil) {
      nodes_[prev].next = next;
    } else {
      head_ = next;
    }
    if (next != kNil) {
      nodes_[next].prev = prev;
    } else {
      tail_ = prev;
    }
    --size_;
  }

  std::vector<Node> nodes_;      // slab; front of list = hottest
  std::vector<uint32_t> free_;   // recycled node indices
  std::vector<uint32_t> index_;  // key -> node, kNil when absent
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  size_t size_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_LRU_LIST_H_
