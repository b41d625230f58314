// Bounded lock-free single-producer/single-consumer ring: the hot edge
// between one ingest lane and one shard worker. A mutex+condvar queue
// would cost a lock round-trip (and usually a futex wake) per message and
// serialise the lanes under multi-producer ingest; this ring uses two
// cache-line-padded monotonic counters instead: the producer owns
// `tail_`, the consumer owns `head_`, each caches the other side's
// counter so the common case touches no shared cache line at all.
//
// Contract: exactly ONE thread calls TryPush/Push and exactly ONE thread
// calls TryPop/Pop for the lifetime of the ring (Close() may be called
// from anywhere). T must be default-constructible and movable. Capacity
// is rounded up to a power of two.
//
// Shutdown: Close() makes further pushes fail (Push returns false = the
// loud backpressure path during Finish); items accepted before the close
// remain poppable, so the consumer drains everything that was accepted.

#ifndef USP_STREAM_SPSC_RING_H_
#define USP_STREAM_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

namespace usp {
namespace stream {

/// Exponential wait used by blocked ring producers and idle shard workers:
/// spin briefly (the counterpart is usually one batch away), then yield,
/// then sleep in doubling steps up to `max_sleep_us`. Reset() after any
/// progress. Pick the cap by role: a producer blocked on backpressure
/// wants to resume quickly (default 1 ms), while a long-idle consumer
/// should park cheaply rather than poll (pass a larger cap — an idle
/// worker's wakeup rate is 1/max_sleep, so 20 ms ≈ 50 no-op sweeps/sec
/// instead of the 1000/sec a 1 ms cap would burn forever on quiet feeds).
class Backoff {
 public:
  static constexpr int kDefaultMaxSleepUs = 1000;

  explicit Backoff(int max_sleep_us = kDefaultMaxSleepUs)
      : max_sleep_us_(max_sleep_us) {}

  void Pause() {
    if (rounds_ < kSpinRounds) {
      ++rounds_;
      for (int i = 0; i < 32; ++i) {
        // Compiler barrier only; keeps the loop from being optimised away
        // while staying portable (no pause/yield intrinsic dependency).
        std::atomic_signal_fence(std::memory_order_seq_cst);
      }
    } else if (rounds_ < kSpinRounds + kYieldRounds) {
      ++rounds_;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
      if (sleep_us_ < max_sleep_us_) sleep_us_ *= 2;
    }
  }

  void Reset() {
    rounds_ = 0;
    sleep_us_ = kMinSleepUs;
  }

 private:
  static constexpr int kSpinRounds = 64;
  static constexpr int kYieldRounds = 64;
  static constexpr int kMinSleepUs = 50;

  const int max_sleep_us_;
  int rounds_ = 0;
  int sleep_us_ = kMinSleepUs;
};

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 1). With
  /// `defer_alloc` the slot array is NOT allocated here: the consumer
  /// thread must call AllocateSlots() before the ring carries traffic, so
  /// the slots are first-touched (page-faulted) on the consumer's core —
  /// core-local under thread pinning. The owner is responsible for
  /// publishing the allocation to the producer before its first push (the
  /// sharded executor's startup latch does this).
  explicit SpscRing(size_t capacity, bool defer_alloc = false) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    if (!defer_alloc) slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Consumer-side half of the deferred-allocation constructor. Idempotent.
  void AllocateSlots() {
    if (slots_.size() != mask_ + 1) slots_.resize(mask_ + 1);
  }

  size_t capacity() const { return mask_ + 1; }

  /// Producer only. Moves `item` into the ring and returns true; returns
  /// false (leaving `item` intact) when the ring is full or closed.
  bool TryPush(T& item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;  // genuinely full
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer only. Blocks (with backoff) while full — this is the
  /// ingest backpressure. Returns false once the ring is closed.
  bool Push(T item) {
    Backoff backoff;
    while (!TryPush(item)) {
      if (closed_.load(std::memory_order_acquire)) return false;
      backoff.Pause();
    }
    return true;
  }

  /// Consumer only. Non-blocking; nullopt when currently empty.
  std::optional<T> TryPop() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return std::nullopt;
    }
    std::optional<T> out(std::move(slots_[head & mask_]));
    slots_[head & mask_] = T();  // release the slot's resources eagerly
    head_.store(head + 1, std::memory_order_release);
    return out;
  }

  /// Consumer only. Blocks (with backoff) while empty; nullopt once the
  /// ring is closed AND drained.
  std::optional<T> Pop() {
    Backoff backoff;
    while (true) {
      if (auto item = TryPop()) return item;
      if (closed_.load(std::memory_order_acquire)) {
        // A push may have raced the close; one more look drains it.
        if (auto item = TryPop()) return item;
        return std::nullopt;
      }
      backoff.Pause();
    }
  }

  /// Any thread. No further pushes succeed; pops drain accepted items.
  void Close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate occupancy (either side may move concurrently).
  size_t size() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  /// Consumer-owned line: position + cached producer counter.
  alignas(64) std::atomic<uint64_t> head_{0};
  uint64_t tail_cache_ = 0;
  /// Producer-owned line: position + cached consumer counter.
  alignas(64) std::atomic<uint64_t> tail_{0};
  uint64_t head_cache_ = 0;
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_SPSC_RING_H_
