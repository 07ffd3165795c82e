// Synchronization primitives for the sharded parallel simulation engine.
//
// The sharded engine (Cluster, src/runtime/cluster.h) partitions a cluster
// into shards, each driven by its own worker thread over its own
// EventQueue. Shards advance in lockstep time windows and exchange
// cross-shard page ops through the two pieces here:
//
//  - Outboxes: one plain std::vector<CrossShardOp> per (sender shard,
//    receiver shard) pair, sized by the traffic it carries. The sender
//    appends during its window without a lock; TransferOps moves the
//    contents to the receiver's pending list inside the window barrier's
//    completion step. The sender's append happens before it arrives at
//    the barrier, and the completion step runs under the barrier's mutex
//    after every worker has arrived, so the mutex orders each push before
//    the drain, and the drain before the sender's next window.
//
//  - WindowBarrier: a classic generation-counted barrier whose last
//    arriver runs a completion hook before releasing the others. The
//    completion step is the engine's only serial section: it drains
//    outboxes and decides the next window (advance, jump over idle time,
//    or stop).
//
// Determinism contract: everything observable is a pure function of the
// op sequence. Receivers apply ops sorted by (effect_ts, sender, seq), a
// total order, so the order in which the barrier drains outboxes never
// matters; an op's *application window* is fixed too: its effect_ts is
// clamped to at least the end of the window it was sent in, receivers
// only apply ops whose effect_ts falls inside the window being opened,
// and the barrier guarantees every op is visible by then.
#ifndef LEAP_SRC_SIM_SHARD_SYNC_H_
#define LEAP_SRC_SIM_SHARD_SYNC_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/sim/types.h"

namespace leap {

// One cross-shard page op. POD by design: outboxes move these between
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

// Appends every op in `outbox` to `pending`, in send order, and empties
// `outbox` (its capacity is kept for the sender's next window). Called
// only from the window barrier's completion step.
inline void TransferOps(std::vector<CrossShardOp>& outbox,
                        std::vector<CrossShardOp>& pending) {
  pending.insert(pending.end(), outbox.begin(), outbox.end());
  outbox.clear();
}

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
