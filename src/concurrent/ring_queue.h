#ifndef RTREC_CONCURRENT_RING_QUEUE_H_
#define RTREC_CONCURRENT_RING_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "concurrent/mpsc_ring.h"
#include "concurrent/spsc_ring.h"
#include "concurrent/wait_strategy.h"

namespace rtrec::concurrent {

/// Blocking bounded queue over a lock-free ring — the stream engine's
/// task queue. The data path (push, pop, batch drain) is the underlying
/// SPSC or MPSC ring and never takes a lock. A side that found the ring
/// full (producer backpressure) or empty (idle consumer) after an
/// adaptive spin-then-yield phase parks with std::atomic::wait on the
/// other side's change counter: `pushes_` for the consumer, `pops_` for
/// producers. A push into an empty ring therefore costs a ring write
/// plus one counter increment and one flag load; the wake syscall fires
/// only when the counterpart actually parked.
///
/// Semantics mirror the mutex BoundedQueue it replaces:
///   - Push / PushBatch block when full (end-to-end backpressure) and
///     return false only once the queue is closed;
///   - Pop/PopBatch block when empty, drain remaining items after
///     Close, then return nullopt / 0;
///   - Close is idempotent and wakes every parked thread.
///
/// Thread contract: single consumer always; single producer only when
/// Options::single_producer promised it (the ring is chosen
/// accordingly).
///
/// Lost-wakeup note: every step of the handshake is a seq_cst atomic
/// operation, so ThreadSanitizer sees all of it. The parking side raises
/// its flag, reads the counter, rechecks the ring and waits on the value
/// it read. The waking side moves items, increments the counter, then
/// notifies if the flag is up. If the recheck missed the other side's
/// push or pop, the counter has already moved past the value read and
/// the wait returns at once. If the waking side saw the flag down, the
/// parking side's counter read saw the increment, so its recheck sees
/// the items. The flag check keeps notify off the fast path: waiters on
/// every queue share a few hashed wait slots, so an unconditional notify
/// would make a futex call whenever any other queue's consumer sleeps.
template <typename T>
class RingQueue {
 public:
  /// Shared counters surfaced in the metrics registry; any pointer may
  /// be null. Several queues typically share one set (topology-wide
  /// "stream.queue.*" totals).
  struct Stats {
    // Push / PushBatch calls that found the ring full at least once (a
    // batch counts once, however many of its items had to wait).
    Counter* push_retries = nullptr;
    Counter* batch_drains = nullptr;    // PopBatch calls returning >= 1.
    Counter* parked_wakeups = nullptr;  // Consumer wakeups after a park.
  };

  struct Options {
    /// Minimum capacity; rounded up to a power of two.
    std::size_t capacity = 1024;
    /// Promise that exactly one thread pushes — selects the cheaper
    /// wait-free SPSC ring instead of the CAS-based MPSC ring.
    bool single_producer = false;
    Stats stats;
  };

  explicit RingQueue(Options options)
      : options_(options), spin_(SpinPolicy::ForHost()) {
    if (options_.single_producer) {
      spsc_ = std::make_unique<SpscRing<T>>(options_.capacity);
    } else {
      mpsc_ = std::make_unique<MpscRing<T>>(options_.capacity);
    }
  }

  explicit RingQueue(std::size_t capacity)
      : RingQueue(MakeOptions(capacity)) {}

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  /// Blocks until the item is in the ring or the queue is closed.
  /// Returns false iff closed (item dropped). Lvalues are copied in.
  bool Push(const T& item) { return Push(T(item)); }
  bool Push(T&& item) { return PushBatch(std::span<T>(&item, 1)); }

  /// Moves every item of `items` into the ring in order, blocking while
  /// it is full like Push. Each run of items that fits costs one ring
  /// claim (SPSC: one release store; MPSC: one CAS for the whole run),
  /// one counter increment and one consumer wake check. A batch larger
  /// than the free space goes in piecewise as the consumer drains.
  /// Returns false iff the queue closed first; items not yet in the ring
  /// are then dropped. One producer's batches keep their order.
  bool PushBatch(std::span<T> items) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t done = 0;
    if (PushMore(items, done)) return true;
    Bump(options_.stats.push_retries);
    while (!closed_.load(std::memory_order_acquire)) {
      for (int i = 0; i < spin_.spins; ++i) {
        CpuPause();
        if (PushMore(items, done)) return true;
      }
      for (int i = 0; i < spin_.yields; ++i) {
        std::this_thread::yield();
        if (PushMore(items, done)) return true;
      }
      // Park (see the lost-wakeup note): flag, counter, recheck, wait.
      producers_parked_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t seen = pops_.load(std::memory_order_seq_cst);
      const std::size_t before = done;
      const bool all_in = PushMore(items, done);
      if (done == before && !closed_.load(std::memory_order_acquire)) {
        pops_.wait(seen, std::memory_order_seq_cst);
      }
      producers_parked_.fetch_sub(1, std::memory_order_relaxed);
      if (all_in) return true;
    }
    return false;
  }

  /// Blocks until at least one item is available, appends up to
  /// `max_items` of them to `out` in FIFO order, and returns the count.
  /// Returns 0 only when the queue is closed and fully drained.
  std::size_t PopBatch(std::vector<T>& out, std::size_t max_items) {
    if (max_items == 0) max_items = 1;
    for (;;) {
      std::size_t n = RingPopBatch(out, max_items);
      if (n > 0) {
        Bump(options_.stats.batch_drains);
        WakeProducersIfParked();
        return n;
      }
      if (closed_.load(std::memory_order_acquire)) {
        // Final drain: items pushed before Close must still come out.
        n = RingPopBatch(out, max_items);
        if (n > 0) {
          Bump(options_.stats.batch_drains);
          WakeProducersIfParked();
        }
        return n;
      }
      for (int i = 0; i < spin_.spins && SizeApprox() == 0; ++i) CpuPause();
      for (int i = 0; i < spin_.yields && SizeApprox() == 0; ++i) {
        std::this_thread::yield();
      }
      if (SizeApprox() != 0) {
        // Items exist but are not poppable yet (an MPSC producer
        // claimed a slot mid-write). Yield so it can publish; never
        // tight-spin here — on a single CPU that would stall the very
        // thread we are waiting for.
        std::this_thread::yield();
        continue;
      }
      // Park (see the lost-wakeup note): flag, counter, recheck, wait.
      consumer_parked_.store(true, std::memory_order_seq_cst);
      const std::uint32_t seen = pushes_.load(std::memory_order_seq_cst);
      if (SizeApprox() == 0 && !closed_.load(std::memory_order_acquire)) {
        pushes_.wait(seen, std::memory_order_seq_cst);
        Bump(options_.stats.parked_wakeups);
      }
      consumer_parked_.store(false, std::memory_order_relaxed);
    }
  }

  /// Blocking single pop; nullopt only when closed and drained.
  std::optional<T> Pop() {
    std::vector<T> one;
    one.reserve(1);
    if (PopBatch(one, 1) == 0) return std::nullopt;
    return std::move(one.front());
  }

  /// Closes the queue: pending and future pushes return false, pops
  /// drain then report exhaustion. Idempotent. Moving both counters
  /// releases every wait, parked or about to park.
  void Close() {
    closed_.store(true, std::memory_order_seq_cst);
    pushes_.fetch_add(1, std::memory_order_seq_cst);
    pushes_.notify_all();
    pops_.fetch_add(1, std::memory_order_seq_cst);
    pops_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t capacity() const {
    return spsc_ != nullptr ? spsc_->capacity() : mpsc_->capacity();
  }

  std::size_t SizeApprox() const {
    return spsc_ != nullptr ? spsc_->SizeApprox() : mpsc_->SizeApprox();
  }

  bool single_producer() const { return options_.single_producer; }

 private:
  static Options MakeOptions(std::size_t capacity) {
    Options options;
    options.capacity = capacity;
    return options;
  }

  static void Bump(Counter* counter) {
    if (counter != nullptr) counter->Increment();
  }

  std::size_t RingPushBatch(std::span<T> items) {
    return spsc_ != nullptr ? spsc_->TryPushBatch(items)
                            : mpsc_->TryPushBatch(items);
  }

  // Pushes what fits of items[done..], waking the consumer on any
  // progress (a partial batch must not wait for the rest to fit). True
  // once every item is in.
  bool PushMore(std::span<T> items, std::size_t& done) {
    const std::size_t pushed = RingPushBatch(items.subspan(done));
    if (pushed == 0) return false;
    done += pushed;
    WakeConsumerIfParked();
    return done == items.size();
  }
  std::size_t RingPopBatch(std::vector<T>& out, std::size_t max_items) {
    return spsc_ != nullptr ? spsc_->TryPopBatch(out, max_items)
                            : mpsc_->TryPopBatch(out, max_items);
  }

  void WakeConsumerIfParked() {
    pushes_.fetch_add(1, std::memory_order_seq_cst);
    if (consumer_parked_.load(std::memory_order_seq_cst)) pushes_.notify_one();
  }

  void WakeProducersIfParked() {
    pops_.fetch_add(1, std::memory_order_seq_cst);
    if (producers_parked_.load(std::memory_order_seq_cst) > 0) {
      pops_.notify_all();
    }
  }

  const Options options_;
  const SpinPolicy spin_;
  std::unique_ptr<SpscRing<T>> spsc_;
  std::unique_ptr<MpscRing<T>> mpsc_;

  std::atomic<bool> closed_{false};
  std::atomic<bool> consumer_parked_{false};
  std::atomic<int> producers_parked_{0};
  // Change counters the parked sides wait on, each bumped after every
  // push (pop) that moved items and by Close. On their own cache lines:
  // producers write one, the consumer the other.
  alignas(kCacheLineSize) std::atomic<std::uint32_t> pushes_{0};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> pops_{0};
};

}  // namespace rtrec::concurrent

#endif  // RTREC_CONCURRENT_RING_QUEUE_H_
