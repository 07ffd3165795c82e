// O(1) LRU list, the reclaim order for resident pages (keyed by vpn) and
// the machine's swap-cache queues (keyed by slot).
//
// Reclaim dequeues from the cold end, exactly like the kernel walking the
// inactive list. Used with Insert only, it is a FIFO in insertion order:
// kswapd's retire and TTL queues. Implemented as an intrusive doubly-
// linked list threaded through a slab of pooled nodes (indices, not
// pointers) with a FlatMap key index: a Touch in steady state is two map
// probes and a few slab stores - no per-operation allocation, no pointer-
// chased std::list nodes. Kept header-only: it is a small template used
// with a handful of key types.
#ifndef LEAP_SRC_MEM_LRU_LIST_H_
#define LEAP_SRC_MEM_LRU_LIST_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/container/flat_map.h"
#include "src/sim/types.h"

namespace leap {

template <typename Key, typename Hash = std::hash<Key>>
class LruList {
 public:
  // Inserts or refreshes `key` as most-recently-used. Each Touch bumps the
  // entry's access count (saturating), the hotness signal the tier
  // migrator's promotion scan reads via AccessCount/DecayCounts.
  void Touch(const Key& key) {
    auto [slot, inserted] = index_.Emplace(key);
    if (!inserted) {
      const uint32_t node = *slot;
      if (nodes_[node].count < kCountMax) {
        ++nodes_[node].count;
      }
      Unlink(node);
      LinkFront(node);
      return;
    }
    *slot = NewNode(key);
    LinkFront(*slot);
  }

  // Inserts `key` as most-recently-used only if absent (FIFO position is
  // set once); returns true when inserted.
  bool Insert(const Key& key) {
    auto [slot, inserted] = index_.Emplace(key);
    if (!inserted) {
      return false;
    }
    *slot = NewNode(key);
    LinkFront(*slot);
    return true;
  }

  // Removes `key`; returns true if it was present.
  bool Remove(const Key& key) {
    const std::optional<uint32_t> node = index_.Take(key);
    if (!node.has_value()) {
      return false;
    }
    Unlink(*node);
    FreeNode(*node);
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
    Key key = nodes_[idx].key;
    index_.Erase(key);
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

  bool Contains(const Key& key) const { return index_.Contains(key); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Accesses recorded for `key` since insertion (Insert/first Touch = 1;
  // each later Touch adds 1, saturating at kCountMax). 0 when absent.
  uint32_t AccessCount(const Key& key) const {
    const uint32_t* node = index_.Find(key);
    return node == nullptr ? 0 : nodes_[*node].count;
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

  // Drops all entries; the node slab is recycled, not deallocated.
  void Clear() {
    for (uint32_t idx = head_; idx != kNil;) {
      const uint32_t next = nodes_[idx].next;
      FreeNode(idx);
      idx = next;
    }
    head_ = kNil;
    tail_ = kNil;
    size_ = 0;
    index_.Clear();
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

  uint32_t NewNode(const Key& key) {
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
  FlatMap<Key, uint32_t, Hash> index_;
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  size_t size_ = 0;
};

// Key for process-owned resident pages.
struct PidVpn {
  Pid pid;
  Vpn vpn;
  bool operator==(const PidVpn&) const = default;
};

struct PidVpnHash {
  size_t operator()(const PidVpn& k) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(k.pid) << 48) ^ k.vpn);
  }
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_LRU_LIST_H_
