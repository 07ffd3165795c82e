// Fixed-capacity inline vector: vector-like interface, storage embedded in
// the object, no heap allocation ever. Used for prefetch candidate lists
// and I/O batch scratch on the fault path, whose sizes are bounded by
// compile-time caps (see kMaxPrefetchCandidates in src/sim/types.h).
//
// T must be trivially copyable and trivially destructible (the intended
// use is scalar slots, timestamps and plain descriptors such as
// IoRequest). Only the first size() slots hold elements: construction
// writes none of the N slots, a copy or assignment copies exactly the live
// elements, and the unused slots are indeterminate. A fault-path scratch
// vector is built and returned by value on every miss, so writing or
// copying all N slots would cost kilobytes per miss that nothing reads.
// resize() value-initialises the elements it adds.
//
// Builds without NDEBUG (the sanitizer CI leg) fill every unused slot with
// a poison byte pattern on construction, copy, assignment, pop_back,
// clear and resize, so an output that ever reads past size() changes
// visibly instead of reading whatever a slot last held. ASan cannot see
// such a read: the storage is inside the object. Release builds write
// nothing there.
//
// Overflowing push_back is a programming error: it asserts in debug builds
// and drops the element in release builds, so callers must clamp
// generation loops to capacity (or check full()).
#ifndef LEAP_SRC_CONTAINER_INLINE_VEC_H_
#define LEAP_SRC_CONTAINER_INLINE_VEC_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

namespace leap {

// Byte written over unused InlineVec slots in builds without NDEBUG.
inline constexpr unsigned char kInlineVecPoison = 0xA5;

template <typename T, size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "InlineVec copies elements bytewise and never destroys them");

 public:
  using value_type = T;

  // Writes no slot outside the poison (items_ is a union member, so it is
  // not default-initialised).
  InlineVec() { Poison(0); }
  InlineVec(const InlineVec& other) : size_(other.size_) {
    std::memcpy(items_, other.items_, size_ * sizeof(T));
    Poison(size_);
  }
  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) {
      size_ = other.size_;
      std::memcpy(items_, other.items_, size_ * sizeof(T));
      Poison(size_);
    }
    return *this;
  }

  static constexpr size_t capacity() { return N; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == N; }

  void push_back(const T& v) {
    assert(size_ < N && "InlineVec overflow");
    if (size_ < N) {
      ::new (static_cast<void*>(items_ + size_)) T(v);
      ++size_;
    }
  }

  void pop_back() {
    assert(size_ > 0);
    if (size_ > 0) {
      --size_;
      Poison(size_);
    }
  }

  void clear() {
    size_ = 0;
    Poison(0);
  }

  // Grows (value-initialized) or shrinks to exactly `n` elements.
  void resize(size_t n) {
    assert(n <= N);
    if (n > N) {
      n = N;
    }
    for (size_t i = size_; i < n; ++i) {
      ::new (static_cast<void*>(items_ + i)) T();
    }
    size_ = n;
    Poison(n);
  }

  T& operator[](size_t i) {
    assert(i < size_);
    return items_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return items_[i];
  }

  T& back() {
    assert(size_ > 0);
    return items_[size_ - 1];
  }
  const T& back() const {
    assert(size_ > 0);
    return items_[size_ - 1];
  }

  T* data() { return items_; }
  const T* data() const { return items_; }
  T* begin() { return items_; }
  T* end() { return items_ + size_; }
  const T* begin() const { return items_; }
  const T* end() const { return items_ + size_; }

  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    if (a.size_ != b.size_) {
      return false;
    }
    for (size_t i = 0; i < a.size_; ++i) {
      if (!(a.items_[i] == b.items_[i])) {
        return false;
      }
    }
    return true;
  }

  // Element-wise comparison against any sized range (e.g. std::vector in
  // test expectations).
  template <typename C>
    requires(!std::is_same_v<C, InlineVec> &&
             requires(const C& c) { c.size(); c.begin(); })
  friend bool operator==(const InlineVec& a, const C& b) {
    if (a.size_ != b.size()) {
      return false;
    }
    auto it = b.begin();
    for (size_t i = 0; i < a.size_; ++i, ++it) {
      if (!(a.items_[i] == *it)) {
        return false;
      }
    }
    return true;
  }

 private:
  // Fills slots [from, N) with kInlineVecPoison; a no-op under NDEBUG.
  void Poison([[maybe_unused]] size_t from) {
#ifndef NDEBUG
    std::memset(static_cast<void*>(items_ + from), kInlineVecPoison,
                (N - from) * sizeof(T));
#endif
  }

  size_t size_ = 0;
  union {
    T items_[N];
  };
};

}  // namespace leap

#endif  // LEAP_SRC_CONTAINER_INLINE_VEC_H_
