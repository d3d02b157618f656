#ifndef RTREC_CONCURRENT_SPSC_RING_H_
#define RTREC_CONCURRENT_SPSC_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace rtrec::concurrent {

/// Cache-line size assumed for padding. 64 bytes covers x86-64 and most
/// aarch64 parts; over-padding on exotic hosts only wastes a few bytes.
inline constexpr std::size_t kCacheLineSize = 64;

/// Smallest power of two >= v (and >= 2).
inline std::size_t CeilPow2(std::size_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

/// Bounded single-producer single-consumer ring (Lamport queue with
/// cached counterparts). Wait-free on both sides: TryPush/TryPop never
/// loop or CAS. The head and tail indices live on separate cache lines,
/// each co-located with that side's *cached* copy of the opposite index,
/// so the fast path touches one line and only a full/empty boundary
/// forces a cross-core load.
///
/// Capacity rounds up to a power of two so wrap-around is a mask, not a
/// modulo. Indices increase monotonically and are compared by
/// difference, so unsigned wrap of the counters themselves is harmless.
///
/// Thread contract: exactly one thread calls TryPush / TryPushBatch,
/// exactly one (possibly different) thread calls TryPop / TryPopBatch.
/// SizeApprox may be called from anywhere.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity)
      : capacity_(CeilPow2(min_capacity < 2 ? 2 : min_capacity)),
        mask_(capacity_ - 1),
        slots_(capacity_) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Moves `item` into the ring. Returns false (item untouched) when
  /// full.
  bool TryPush(T& item) { return TryPushBatch(std::span<T>(&item, 1)) == 1; }

  /// Moves the longest prefix of `items` that fits into the ring, in
  /// order, and publishes it with one release store. Returns the number
  /// moved (0 when full); the rest of `items` is untouched.
  std::size_t TryPushBatch(std::span<T> items) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (capacity_ - (tail - cached_head_) < items.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
    }
    const std::size_t n =
        std::min(items.size(), capacity_ - (tail - cached_head_));
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(tail + i) & mask_] = std::move(items[i]);
    }
    if (n > 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Moves the oldest item into `out`. Returns false when empty.
  bool TryPop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Appends up to `max_items` oldest items to `out` in FIFO order with
  /// a single index update — the batched hand-off that lets a consumer
  /// amortize one wakeup over many tuples. Returns the number taken.
  std::size_t TryPopBatch(std::vector<T>& out, std::size_t max_items) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    cached_tail_ = tail_.load(std::memory_order_acquire);
    std::size_t n = cached_tail_ - head;
    if (n > max_items) n = max_items;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(slots_[(head + i) & mask_]));
    }
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  std::size_t capacity() const { return capacity_; }

  /// Racy size estimate (exact when both sides are quiescent).
  std::size_t SizeApprox() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<T> slots_;

  // Consumer cache line: the consumer index plus its stale view of tail.
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;
  // Producer cache line: the producer index plus its stale view of head.
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  std::size_t cached_head_ = 0;
  // Trailing pad so an adjacent allocation cannot false-share tail_.
  alignas(kCacheLineSize) char pad_end_[kCacheLineSize] = {};
};

}  // namespace rtrec::concurrent

#endif  // RTREC_CONCURRENT_SPSC_RING_H_
