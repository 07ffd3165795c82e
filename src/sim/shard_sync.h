// Synchronization primitives for the sharded parallel simulation engine.
//
// The sharded engine (Cluster, src/runtime/cluster.h) partitions a cluster
// into shards, each driven by its own worker thread over its own
// EventQueue. Shards advance in lockstep time windows and exchange
// cross-shard page ops through the two primitives here:
//
//  - SpscMailbox: a fixed-capacity single-producer/single-consumer ring of
//    POD CrossShardOp records, one per (sender shard, receiver shard)
//    pair. The sender pushes wait-free during its window; the ring is
//    drained only inside the window barrier's completion step, where every
//    worker is quiesced, so a push and a drain never race on the same
//    window's entries (the atomics make the hand-off well-defined for
//    TSan and for any future opportunistic drain). A full ring spills to a
//    sender-side overflow vector that the same completion step flushes -
//    overflow changes delivery latency never, and ordering never, because
//    receivers apply ops sorted by (effect_ts, sender, seq).
//
//  - WindowBarrier: a classic generation-counted barrier whose last
//    arriver runs a completion hook before releasing the others. The
//    completion step is the engine's only serial section: it drains
//    mailboxes and decides the next window (advance, jump over idle time,
//    or stop).
//
// Determinism contract: everything observable is a pure function of the
// op sequence. Whether a racing push lands before or after a particular
// drain can vary run to run, but an op's *application window* cannot: its
// effect_ts is clamped to at least the end of the window it was sent in,
// receivers only apply ops whose effect_ts falls inside the window being
// opened, and the barrier guarantees every op is visible by then.
#ifndef LEAP_SRC_SIM_SHARD_SYNC_H_
#define LEAP_SRC_SIM_SHARD_SYNC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/sim/types.h"

namespace leap {

// One cross-shard page op. POD by design: mailboxes move these between
// threads, so no pointers into sender-owned state are allowed.
struct CrossShardOp {
  enum class Kind : uint8_t {
    kMirrorWrite,  // async cross-domain page replica (DR traffic)
  };

  SimTimeNs effect_ts = 0;  // when the op lands at the target shard
  uint64_t seq = 0;         // per-sender sequence (total order tiebreak)
  uint64_t page_key = 0;    // target node's tag-store key
  uint64_t tag = 0;         // content tag to store
  SwapSlot slot = kInvalidSlot;
  uint32_t node = 0;      // global target node id (homed at receiver)
  uint32_t host = 0;      // global sending host id
  uint32_t sender = 0;    // sending shard id (sort key component)
  Pid tenant = 0;
  uint32_t bytes = static_cast<uint32_t>(kPageSize);
  Kind kind = Kind::kMirrorWrite;
};

// Application order at the receiver: ops land in simulated-time order,
// with (sender shard, per-sender seq) breaking ties so equal-time ops from
// different senders apply in a run-independent order.
inline bool CrossShardOpBefore(const CrossShardOp& a, const CrossShardOp& b) {
  if (a.effect_ts != b.effect_ts) {
    return a.effect_ts < b.effect_ts;
  }
  if (a.sender != b.sender) {
    return a.sender < b.sender;
  }
  return a.seq < b.seq;
}

class SpscMailbox {
 public:
  explicit SpscMailbox(size_t capacity_pow2 = 4096)
      : buffer_(RoundUpPow2(capacity_pow2)), mask_(buffer_.size() - 1) {}

  // Producer side (sender shard's worker thread). Never blocks: a full
  // ring spills into the overflow vector, and once anything has spilled,
  // later pushes spill too so per-sender FIFO order is preserved.
  void Push(const CrossShardOp& op) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    if (!overflow_.empty() || tail - head >= buffer_.size()) {
      overflow_.push_back(op);
      ++overflowed_;
      return;
    }
    buffer_[tail & mask_] = op;
    tail_.store(tail + 1, std::memory_order_release);
  }

  // Consumer side. Only called from the window barrier's completion step
  // (all workers quiesced). Appends every queued op - ring first, then the
  // sender's overflow spill - to `out` and empties both.
  void DrainTo(std::vector<CrossShardOp>& out) {
    const size_t tail = tail_.load(std::memory_order_acquire);
    size_t head = head_.load(std::memory_order_relaxed);
    while (head != tail) {
      out.push_back(buffer_[head & mask_]);
      ++head;
    }
    head_.store(head, std::memory_order_release);
    if (!overflow_.empty()) {
      out.insert(out.end(), overflow_.begin(), overflow_.end());
      overflow_.clear();
    }
  }

  bool Empty() const {
    return overflow_.empty() &&
           head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire);
  }

  // Total ops that missed the ring and took the overflow spill (capacity
  // pressure telemetry; delivery is unaffected).
  uint64_t overflowed() const { return overflowed_; }

 private:
  static size_t RoundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) {
      p <<= 1;
    }
    return p;
  }

  std::vector<CrossShardOp> buffer_;
  size_t mask_;
  std::atomic<size_t> head_{0};
  std::atomic<size_t> tail_{0};
  // Sender-owned spill; drained under the barrier like the ring.
  std::vector<CrossShardOp> overflow_;
  uint64_t overflowed_ = 0;
};

// Generation-counted barrier with a completion hook run by the last
// arriver while every other worker is parked. The hook is the sharded
// engine's serial section; keep it cheap.
class WindowBarrier {
 public:
  WindowBarrier(size_t parties, std::function<void()> on_complete)
      : parties_(parties), on_complete_(std::move(on_complete)) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t my_generation = generation_;
    if (++arrived_ == parties_) {
      if (on_complete_) {
        on_complete_();
      }
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != my_generation; });
  }

 private:
  const size_t parties_;
  std::function<void()> on_complete_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t arrived_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_SIM_SHARD_SYNC_H_
