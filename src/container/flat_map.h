// Open-addressing robin-hood flat hash map.
//
// For sparse keys: per-pid policy and tracker state, prefetcher signature
// tables, remote page tags, link flow horizons. (Tables keyed by a vpn or a
// swap slot - page records, the swap cache, swap-slot owners, the tier LRU
// indexes - are dense and index a vector directly; see dense_index.h.)
// std::unordered_map pays a pointer chase plus a heap allocation per node;
// this map keeps keys, values, and probe metadata in three flat arrays, so
// a lookup is one mix, one indexed load, and a short linear probe - and
// inserting/erasing in steady state never touches the allocator.
//
// Requirements on the parameters:
//  - Key: default-constructible, movable, equality-comparable.
//  - Value: default-constructible, movable (move-only types like
//    std::unique_ptr are fine).
//  - Hash: stateless callable over Key. The raw hash is finalized with a
//    Fibonacci multiply, so identity hashes (std::hash on integers) are
//    safe even for strided key sets.
//
// Invalidation: pointers returned by Find and iterators stay valid until
// the next mutation (insert, erase, rehash). Robin-hood erase backward-
// shifts trailing entries, so unlike std::unordered_map, erasing one key
// may move *other* entries.
//
// Iteration order is deterministic for a fixed sequence of operations
// (array order), which keeps simulations bit-reproducible across runs.
#ifndef LEAP_SRC_CONTAINER_FLAT_MAP_H_
#define LEAP_SRC_CONTAINER_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace leap {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return meta_.size(); }

  // Pre-sizes the table for `n` entries without rehashing on the way there.
  void Reserve(size_t n) {
    size_t want = kMinCapacity;
    // Smallest power of two with n entries under the max load factor.
    while (want * kMaxLoadDen < n * kMaxLoadNum) {
      want *= 2;
    }
    if (want > meta_.size()) {
      Rehash(want);
    }
  }

  V* Find(const K& key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }

  const V* Find(const K& key) const {
    const size_t pos = Probe(key);
    return pos == kAbsent ? nullptr : &values_[pos];
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  // Inserts a default-constructed value if `key` is absent. Returns the
  // value slot and whether an insert happened.
  std::pair<V*, bool> Emplace(const K& key) {
    if (V* existing = Find(key)) {
      return {existing, false};
    }
    EnsureRoom();
    return {InsertFresh(key), true};
  }

  // Inserts `value` if `key` is absent; otherwise leaves the map unchanged.
  std::pair<V*, bool> Emplace(const K& key, V value) {
    auto [slot, inserted] = Emplace(key);
    if (inserted) {
      *slot = std::move(value);
    }
    return {slot, inserted};
  }

  V& operator[](const K& key) { return *Emplace(key).first; }

  // Removes `key`; returns true if it was present.
  bool Erase(const K& key) {
    const size_t pos = Probe(key);
    if (pos == kAbsent) {
      return false;
    }
    EraseAt(pos);
    return true;
  }

  // Drops all entries but keeps the table storage (no deallocation).
  void Clear() {
    for (size_t i = 0; i < meta_.size(); ++i) {
      if (meta_[i] != 0) {
        keys_[i] = K{};
        values_[i] = V{};
        meta_[i] = 0;
      }
    }
    size_ = 0;
  }

  // --- iteration (array order; deterministic for a fixed op sequence) -----

  template <bool kConst>
  class Iter {
   public:
    using MapT = std::conditional_t<kConst, const FlatMap, FlatMap>;
    using reference = std::pair<const K&,
                                std::conditional_t<kConst, const V&, V&>>;

    Iter(MapT* map, size_t pos) : map_(map), pos_(pos) { SkipEmpty(); }

    reference operator*() const {
      return {map_->keys_[pos_], map_->values_[pos_]};
    }
    Iter& operator++() {
      ++pos_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const Iter& other) const { return pos_ == other.pos_; }
    bool operator!=(const Iter& other) const { return pos_ != other.pos_; }

   private:
    void SkipEmpty() {
      while (pos_ < map_->meta_.size() && map_->meta_[pos_] == 0) {
        ++pos_;
      }
    }
    MapT* map_;
    size_t pos_;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, meta_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, meta_.size()); }

 private:
  static constexpr size_t kMinCapacity = 16;
  // Max load factor 3/4.
  static constexpr size_t kMaxLoadNum = 4;
  static constexpr size_t kMaxLoadDen = 3;

  size_t HomeIndex(const K& key) const {
    // Fibonacci finalizer: spreads identity hashes across the table while
    // staying deterministic.
    const uint64_t h =
        static_cast<uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h >> shift_);
  }

  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  // Table index holding `key`, or kAbsent.
  size_t Probe(const K& key) const {
    if (size_ == 0) {
      return kAbsent;
    }
    size_t pos = HomeIndex(key);
    uint32_t dist = 1;
    // Robin-hood invariant: once resident entries are closer to home than
    // our probe is long, the key cannot be further along.
    while (meta_[pos] >= dist) {
      if (keys_[pos] == key) {
        return pos;
      }
      pos = (pos + 1) & mask_;
      ++dist;
    }
    return kAbsent;
  }

  void EnsureRoom() {
    if (meta_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * kMaxLoadNum > meta_.size() * kMaxLoadDen) {
      Rehash(meta_.size() * 2);
    }
  }

  // Robin-hood insert of a key known to be absent, with room guaranteed.
  // Returns the slot where `key`'s value lives.
  V* InsertFresh(const K& key) {
    K carry_key = key;
    V carry_value{};
    uint32_t carry_dist = 1;
    size_t pos = HomeIndex(key);
    V* result = nullptr;
    while (true) {
      if (meta_[pos] == 0) {
        keys_[pos] = std::move(carry_key);
        values_[pos] = std::move(carry_value);
        meta_[pos] = carry_dist;
        if (result == nullptr) {
          result = &values_[pos];
        }
        ++size_;
        return result;
      }
      if (meta_[pos] < carry_dist) {
        // Rich resident: it can afford to move further; take its slot.
        std::swap(keys_[pos], carry_key);
        std::swap(values_[pos], carry_value);
        std::swap(meta_[pos], carry_dist);
        if (result == nullptr) {
          result = &values_[pos];
        }
      }
      pos = (pos + 1) & mask_;
      ++carry_dist;
      assert(carry_dist < meta_.size());
    }
  }

  void EraseAt(size_t pos) {
    // Backward shift: pull the probe chain one slot toward home so no
    // tombstones accumulate and probe lengths stay minimal.
    size_t next = (pos + 1) & mask_;
    while (meta_[next] > 1) {
      keys_[pos] = std::move(keys_[next]);
      values_[pos] = std::move(values_[next]);
      meta_[pos] = meta_[next] - 1;
      pos = next;
      next = (pos + 1) & mask_;
    }
    keys_[pos] = K{};
    values_[pos] = V{};
    meta_[pos] = 0;
    --size_;
  }

  void Rehash(size_t new_capacity) {
    std::vector<K> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    std::vector<uint32_t> old_meta = std::move(meta_);

    keys_.assign(new_capacity, K{});
    values_.clear();
    values_.resize(new_capacity);  // V may be move-only; no fill from a copy
    meta_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    shift_ = 64 - Log2(new_capacity);
    size_ = 0;

    for (size_t i = 0; i < old_meta.size(); ++i) {
      if (old_meta[i] != 0) {
        *InsertFresh(old_keys[i]) = std::move(old_values[i]);
      }
    }
  }

  static int Log2(size_t pow2) {
    int bits = 0;
    while ((size_t{1} << bits) < pow2) {
      ++bits;
    }
    return bits;
  }

  std::vector<K> keys_;
  std::vector<V> values_;
  std::vector<uint32_t> meta_;  // 0 = empty, else probe distance + 1
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_CONTAINER_FLAT_MAP_H_
