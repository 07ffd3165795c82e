// Intrusive doubly-linked list threaded through the records of a vector.
//
// The records are the table the list orders - a process's vpn-indexed page
// records, the swap cache's pooled entries, the tiered store's slot-indexed
// records - and each carries a ListLinks member holding its neighbours'
// indices (u32, kNilIndex at either end), the way the kernel threads its
// LRU lists through struct page. The list itself is a head, a tail and a
// count; it allocates nothing, and a record on several lists at once
// carries one ListLinks per list. Records that move between lists but sit
// on one at a time (the tiered store's three tier lists) share one
// ListLinks. Indices are u32, so a table must stay below kNilIndex
// records. Front is hottest (or newest): Touch and PushFront link at the
// front, Coldest reads the back.
//
// The records vector is passed to every operation rather than held, so the
// owner may grow it freely (links are indices, not pointers). A record is
// on the list iff its `prev` is set or it is the head; unlinking resets both
// links, so membership needs no extra bit.
#ifndef LEAP_SRC_CONTAINER_INDEX_LIST_H_
#define LEAP_SRC_CONTAINER_INDEX_LIST_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace leap {

inline constexpr uint32_t kNilIndex = static_cast<uint32_t>(-1);

struct ListLinks {
  uint32_t prev = kNilIndex;
  uint32_t next = kNilIndex;
};

template <typename Record, ListLinks Record::*kLinks>
class IndexList {
 public:
  using Records = std::vector<Record>;

  bool Contains(const Records& records, uint32_t idx) const {
    return (records[idx].*kLinks).prev != kNilIndex || head_ == idx;
  }

  // Links `idx`, which must not be on the list, at the front.
  void PushFront(Records& records, uint32_t idx) {
    assert(!Contains(records, idx) && "record is already on the list");
    ListLinks& links = records[idx].*kLinks;
    links.prev = kNilIndex;
    links.next = head_;
    if (head_ != kNilIndex) {
      (records[head_].*kLinks).prev = idx;
    } else {
      tail_ = idx;
    }
    head_ = idx;
    ++size_;
  }

  // Moves `idx` to the front, linking it there if it is not on the list.
  void Touch(Records& records, uint32_t idx) {
    Remove(records, idx);
    PushFront(records, idx);
  }

  // Unlinks `idx`; does nothing when it is not on the list.
  void Remove(Records& records, uint32_t idx) {
    if (!Contains(records, idx)) {
      return;
    }
    ListLinks& links = records[idx].*kLinks;
    if (links.prev != kNilIndex) {
      (records[links.prev].*kLinks).next = links.next;
    } else {
      head_ = links.next;
    }
    if (links.next != kNilIndex) {
      (records[links.next].*kLinks).prev = links.prev;
    } else {
      tail_ = links.prev;
    }
    links = ListLinks{};
    --size_;
  }

  // The front (hottest / newest) and back (coldest / oldest) records;
  // kNilIndex when empty. Walk from them through the records' links.
  uint32_t Hottest() const { return head_; }
  uint32_t Coldest() const { return tail_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  uint32_t head_ = kNilIndex;
  uint32_t tail_ = kNilIndex;
  size_t size_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_CONTAINER_INDEX_LIST_H_
