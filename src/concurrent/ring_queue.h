#ifndef RTREC_CONCURRENT_RING_QUEUE_H_
#define RTREC_CONCURRENT_RING_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
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
/// SPSC or MPSC ring and never takes a lock; the mutex/condvar pair is
/// only the *parking lot* for a side that found the ring full (producer
/// backpressure) or empty (idle consumer) after an adaptive
/// spin-then-yield phase. A push into an empty ring therefore costs a
/// ring write plus one relaxed flag load; the wake syscall fires only
/// when the counterpart actually parked.
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
/// Lost-wakeup note: parking uses the Dekker pattern (park flag store →
/// seq_cst fence → ring recheck on one side; ring write → seq_cst fence
/// → park flag load on the other). The parked waits are additionally
/// time-bounded (kParkWait) so even a platform where the fence
/// reasoning failed would degrade to a bounded stall, never a hang.
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
  /// one fence and one consumer wake check. A batch larger than the free
  /// space goes in piecewise as the consumer drains. Returns false iff
  /// the queue closed first; items not yet in the ring are then dropped.
  /// One producer's batches keep their order.
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
      // Park. The retry after raising producers_parked_ (inside the
      // lock) closes the race against a consumer that drained the ring
      // and checked the flag before we raised it.
      std::unique_lock<std::mutex> lock(park_mu_);
      producers_parked_.fetch_add(1, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::size_t pushed = RingPushBatch(items.subspan(done));
      if (pushed > 0) {
        done += pushed;
        producers_parked_.fetch_sub(1, std::memory_order_relaxed);
        lock.unlock();
        WakeConsumerIfParked();
        if (done == items.size()) return true;
        continue;
      }
      if (!closed_.load(std::memory_order_acquire)) {
        producer_cv_.wait_for(lock, kParkWait);
      }
      producers_parked_.fetch_sub(1, std::memory_order_relaxed);
    }
    return false;
  }

  /// Non-blocking push; false when full or closed. `item` is left
  /// untouched when the push fails.
  bool TryPush(T&& item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (RingPushBatch(std::span<T>(&item, 1)) == 0) return false;
    WakeConsumerIfParked();
    return true;
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
      std::unique_lock<std::mutex> lock(park_mu_);
      consumer_parked_.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (SizeApprox() != 0 || closed_.load(std::memory_order_acquire)) {
        consumer_parked_.store(false, std::memory_order_relaxed);
        continue;
      }
      consumer_cv_.wait_for(lock, kParkWait);
      consumer_parked_.store(false, std::memory_order_relaxed);
      Bump(options_.stats.parked_wakeups);
    }
  }

  /// Blocking single pop; nullopt only when closed and drained.
  std::optional<T> Pop() {
    std::vector<T> one;
    one.reserve(1);
    if (PopBatch(one, 1) == 0) return std::nullopt;
    return std::move(one.front());
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    T out;
    if (!RingTryPop(out)) return std::nullopt;
    WakeProducersIfParked();
    return out;
  }

  /// Closes the queue: pending and future pushes return false, pops
  /// drain then report exhaustion. Idempotent.
  void Close() {
    closed_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(park_mu_);
    consumer_cv_.notify_all();
    producer_cv_.notify_all();
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
  static constexpr std::chrono::milliseconds kParkWait{1};

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
  // progress (a partial batch must not wait on a parked consumer's
  // timeout). True once every item is in.
  bool PushMore(std::span<T> items, std::size_t& done) {
    const std::size_t pushed = RingPushBatch(items.subspan(done));
    if (pushed == 0) return false;
    done += pushed;
    WakeConsumerIfParked();
    return done == items.size();
  }
  bool RingTryPop(T& out) {
    return spsc_ != nullptr ? spsc_->TryPop(out) : mpsc_->TryPop(out);
  }
  std::size_t RingPopBatch(std::vector<T>& out, std::size_t max_items) {
    return spsc_ != nullptr ? spsc_->TryPopBatch(out, max_items)
                            : mpsc_->TryPopBatch(out, max_items);
  }

  void WakeConsumerIfParked() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (consumer_parked_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(park_mu_);
      consumer_cv_.notify_one();
    }
  }

  void WakeProducersIfParked() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (producers_parked_.load(std::memory_order_relaxed) > 0) {
      std::lock_guard<std::mutex> lock(park_mu_);
      producer_cv_.notify_all();
    }
  }

  const Options options_;
  const SpinPolicy spin_;
  std::unique_ptr<SpscRing<T>> spsc_;
  std::unique_ptr<MpscRing<T>> mpsc_;

  std::atomic<bool> closed_{false};
  std::atomic<bool> consumer_parked_{false};
  std::atomic<int> producers_parked_{0};
  std::mutex park_mu_;
  std::condition_variable consumer_cv_;
  std::condition_variable producer_cv_;
};

}  // namespace rtrec::concurrent

#endif  // RTREC_CONCURRENT_RING_QUEUE_H_
