#ifndef RTREC_CONCURRENT_MPSC_RING_H_
#define RTREC_CONCURRENT_MPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "concurrent/spsc_ring.h"  // kCacheLineSize, CeilPow2

namespace rtrec::concurrent {

/// Bounded multi-producer single-consumer ring: the fan-in queue a
/// fields-grouped bolt needs when several upstream tasks feed one task.
///
/// Design is the classic sequence-stamped bounded queue (Vyukov): every
/// slot carries a sequence number producers claim with one CAS on the
/// shared tail; the slot's own sequence then hands the finished write to
/// the consumer, so a producer that stalls mid-write blocks only the
/// slot it claimed, never the whole ring. Producers are lock-free
/// (obstruction between producers is one CAS retry), the single consumer
/// is wait-free per slot.
///
/// Per-producer FIFO holds: one producer's pushes claim increasing slots
/// and the consumer releases slots in order.
///
/// Thread contract: any number of threads may call TryPush /
/// TryPushBatch; exactly one thread calls TryPop / TryPopBatch.
template <typename T>
class MpscRing {
 public:
  explicit MpscRing(std::size_t min_capacity)
      : capacity_(CeilPow2(min_capacity < 2 ? 2 : min_capacity)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Moves `item` into the ring. Returns false (item untouched) when
  /// full.
  bool TryPush(T& item) { return TryPushBatch(std::span<T>(&item, 1)) == 1; }

  /// Moves the longest prefix of `items` that fits into the ring, in
  /// order, claiming all of its slots with one CAS on the tail. Returns
  /// the number moved (0 when full); the rest of `items` is untouched.
  /// The claimed slots are consecutive, so a batch stays contiguous and
  /// in order for the consumer.
  std::size_t TryPushBatch(std::span<T> items) {
    if (items.empty()) return 0;
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    for (;;) {
      // Count the slots free at consecutive tickets from `tail`. The
      // consumer recycles slots in ticket order, so the run ends at the
      // first slot it has not recycled yet.
      std::size_t n = 0;
      bool stale = false;
      while (n < items.size()) {
        const std::size_t ticket = tail + n;
        const std::size_t seq =
            slots_[ticket & mask_].seq.load(std::memory_order_acquire);
        const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                   static_cast<std::intptr_t>(ticket);
        if (diff != 0) {
          // diff > 0: another producer already claimed this ticket.
          stale = diff > 0;
          break;
        }
        ++n;
      }
      if (n == 0) {
        if (!stale) return 0;  // Ring full.
        tail = tail_.load(std::memory_order_relaxed);
        continue;
      }
      if (tail_.compare_exchange_weak(tail, tail + n,
                                      std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < n; ++i) {
          Slot& slot = slots_[(tail + i) & mask_];
          slot.value = std::move(items[i]);
          slot.seq.store(tail + i + 1, std::memory_order_release);
        }
        return n;
      }
      // CAS lost: `tail` was reloaded, recount from the new ticket.
    }
  }

  /// Moves the oldest item into `out`. Returns false when empty (or the
  /// next slot's producer has claimed but not yet published).
  bool TryPop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[head & mask_];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(head + 1) <
        0) {
      return false;
    }
    out = std::move(slot.value);
    slot.value = T();  // Release payload resources eagerly.
    slot.seq.store(head + capacity_, std::memory_order_release);
    head_.store(head + 1, std::memory_order_relaxed);
    return true;
  }

  /// Appends up to `max_items` published items to `out` in slot order.
  /// Stops early at the first unpublished slot. Returns the number
  /// taken.
  std::size_t TryPopBatch(std::vector<T>& out, std::size_t max_items) {
    std::size_t n = 0;
    std::size_t head = head_.load(std::memory_order_relaxed);
    while (n < max_items) {
      Slot& slot = slots_[head & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      if (static_cast<std::intptr_t>(seq) -
              static_cast<std::intptr_t>(head + 1) <
          0) {
        break;
      }
      // The moved-from value stays in the slot until a producer
      // overwrites it; moved-from envelopes own no heap.
      out.push_back(std::move(slot.value));
      slot.seq.store(head + capacity_, std::memory_order_release);
      ++head;
      ++n;
    }
    if (n > 0) head_.store(head, std::memory_order_relaxed);
    return n;
  }

  std::size_t capacity() const { return capacity_; }

  /// Racy size estimate; counts slots claimed by producers even before
  /// their writes are published (a parking consumer must treat an
  /// in-flight claim as pending work).
  std::size_t SizeApprox() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T value;
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;

  // Consumer index and producer ticket on separate cache lines.
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  alignas(kCacheLineSize) char pad_end_[kCacheLineSize] = {};
};

}  // namespace rtrec::concurrent

#endif  // RTREC_CONCURRENT_MPSC_RING_H_
