// Tests for the lock-free ingest primitives in src/concurrent/: the
// SPSC and MPSC rings, the blocking RingQueue wrapper the stream engine
// uses as its task queue, and the CPU-count query its spin policy
// reads.
// The stress tests do exact accounting (every pushed value popped
// exactly once, per-producer FIFO preserved) and run under the same
// ASan/TSan matrix as the rest of the suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/metrics.h"
#include "concurrent/mpsc_ring.h"
#include "concurrent/ring_queue.h"
#include "concurrent/spsc_ring.h"

namespace rtrec::concurrent {
namespace {

// --- SPSC ring -------------------------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
}

TEST(SpscRingTest, FifoOrderAndEmptyFullEdges) {
  SpscRing<int> ring(4);
  int v = 0;
  EXPECT_FALSE(ring.TryPop(v));  // Empty.
  for (int i = 0; i < 4; ++i) {
    int item = i;
    EXPECT_TRUE(ring.TryPush(item));
  }
  int overflow = 99;
  EXPECT_FALSE(ring.TryPush(overflow));  // Full.
  EXPECT_EQ(overflow, 99);               // Untouched on failure.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.TryPop(v));
}

TEST(SpscRingTest, WrapAroundManyTimes) {
  SpscRing<std::int64_t> ring(4);
  std::int64_t next = 0;
  // 10k items through a 4-slot ring: the indices wrap the mask ~2500
  // times and the values must still come out in order.
  for (std::int64_t i = 0; i < 10000; ++i) {
    std::int64_t item = i;
    ASSERT_TRUE(ring.TryPush(item));
    if (i % 3 == 2) {  // Drain in bursts of 3 to exercise partial fill.
      for (int k = 0; k < 3; ++k) {
        std::int64_t out = -1;
        ASSERT_TRUE(ring.TryPop(out));
        EXPECT_EQ(out, next++);
      }
    }
  }
  std::int64_t out = -1;
  while (ring.TryPop(out)) EXPECT_EQ(out, next++);
  EXPECT_EQ(next, 10000);
}

TEST(SpscRingTest, PopBatchTakesFifoPrefixWithSingleIndexUpdate) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) {
    int item = i;
    ASSERT_TRUE(ring.TryPush(item));
  }
  std::vector<int> out;
  EXPECT_EQ(ring.TryPopBatch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.SizeApprox(), 2u);
  EXPECT_EQ(ring.TryPopBatch(out, 100), 2u);  // Capped by availability.
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(out.back(), 5);
  EXPECT_EQ(ring.TryPopBatch(out, 4), 0u);  // Empty.
}

TEST(SpscRingTest, ThreadPairStressExactAccounting) {
  constexpr std::int64_t kItems = 200000;
  SpscRing<std::int64_t> ring(64);
  std::thread producer([&] {
    for (std::int64_t i = 0; i < kItems;) {
      std::int64_t item = i;
      if (ring.TryPush(item)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::int64_t expected = 0;
  std::vector<std::int64_t> batch;
  while (expected < kItems) {
    batch.clear();
    if (ring.TryPopBatch(batch, 32) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::int64_t v : batch) {
      ASSERT_EQ(v, expected);  // Strict FIFO, nothing lost or duplicated.
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

// --- MPSC ring -------------------------------------------------------------

TEST(MpscRingTest, FifoOrderAndFullEdge) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int item = i;
    EXPECT_TRUE(ring.TryPush(item));
  }
  int overflow = 99;
  EXPECT_FALSE(ring.TryPush(overflow));
  int v = -1;
  ASSERT_TRUE(ring.TryPop(v));
  EXPECT_EQ(v, 0);
  // The freed slot is immediately reusable (wrap-around recycling).
  int item = 100;
  EXPECT_TRUE(ring.TryPush(item));
  std::vector<int> rest;
  EXPECT_EQ(ring.TryPopBatch(rest, 10), 4u);
  EXPECT_EQ(rest, (std::vector<int>{1, 2, 3, 100}));
}

TEST(MpscRingTest, MultiProducerExactAccountingAndPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr std::int64_t kPerProducer = 50000;
  MpscRing<std::int64_t> ring(128);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::int64_t i = 0; i < kPerProducer;) {
        // Encode (producer, sequence) so the consumer can verify both
        // exact delivery and per-producer ordering.
        std::int64_t item = p * kPerProducer + i;
        if (ring.TryPush(item)) {
          ++i;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::int64_t> next_seq(kProducers, 0);
  std::int64_t received = 0;
  std::vector<std::int64_t> batch;
  while (received < kProducers * kPerProducer) {
    batch.clear();
    if (ring.TryPopBatch(batch, 64) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::int64_t v : batch) {
      const int p = static_cast<int>(v / kPerProducer);
      const std::int64_t seq = v % kPerProducer;
      ASSERT_EQ(seq, next_seq[p]);  // FIFO within each producer.
      ++next_seq[p];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ring.SizeApprox(), 0u);
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

// --- Batch push (both rings) ----------------------------------------------

// Pushes batches of varying size and pops in varying amounts, so the
// ring's indices wrap many times with batches straddling the wrap. A
// batch larger than the free space goes in as its longest fitting
// prefix.
template <typename Ring>
void BatchPushWrapsInFifoOrder() {
  Ring ring(8);
  std::int64_t next_push = 0;
  std::int64_t next_pop = 0;
  std::vector<std::int64_t> batch;
  std::vector<std::int64_t> out;
  for (int round = 0; round < 500; ++round) {
    const std::size_t want = 1 + static_cast<std::size_t>(round % 11);
    batch.clear();
    for (std::size_t i = 0; i < want; ++i) batch.push_back(next_push + i);
    const std::size_t free = ring.capacity() - ring.SizeApprox();
    const std::size_t pushed = ring.TryPushBatch(batch);
    ASSERT_EQ(pushed, std::min(want, free));
    next_push += static_cast<std::int64_t>(pushed);
    out.clear();
    ring.TryPopBatch(out, 1 + static_cast<std::size_t>(round % 7));
    for (const std::int64_t v : out) ASSERT_EQ(v, next_pop++);
  }
  out.clear();
  ring.TryPopBatch(out, ring.capacity());
  for (const std::int64_t v : out) ASSERT_EQ(v, next_pop++);
  EXPECT_EQ(next_pop, next_push);
  EXPECT_GT(next_push, 4 * static_cast<std::int64_t>(ring.capacity()));

  // A full ring takes nothing and leaves the batch untouched.
  std::vector<std::int64_t> fill(ring.capacity(), 7);
  ASSERT_EQ(ring.TryPushBatch(fill), ring.capacity());
  std::vector<std::int64_t> rejected = {42};
  EXPECT_EQ(ring.TryPushBatch(rejected), 0u);
  EXPECT_EQ(rejected.front(), 42);
}

TEST(SpscRingTest, BatchPushWrapsInFifoOrder) {
  BatchPushWrapsInFifoOrder<SpscRing<std::int64_t>>();
}

TEST(MpscRingTest, BatchPushWrapsInFifoOrder) {
  BatchPushWrapsInFifoOrder<MpscRing<std::int64_t>>();
}

// A batch several times the ring's capacity completes once the consumer
// drains, on either ring, in order.
TEST(RingQueueTest, PushBatchLargerThanCapacityCompletesAsConsumerDrains) {
  for (const bool single_producer : {true, false}) {
    RingQueue<std::int64_t>::Options options;
    options.capacity = 4;
    options.single_producer = single_producer;
    RingQueue<std::int64_t> queue(options);
    std::vector<std::int64_t> items(100);
    std::iota(items.begin(), items.end(), 0);
    std::atomic<bool> done{false};
    std::thread producer([&] {
      EXPECT_TRUE(queue.PushBatch(items));
      done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(done.load());  // Blocked on the full ring.
    std::vector<std::int64_t> out;
    while (out.size() < 100) queue.PopBatch(out, 3);
    producer.join();
    EXPECT_TRUE(done.load());
    std::vector<std::int64_t> want(100);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(out, want) << "single_producer=" << single_producer;
  }
}

TEST(RingQueueTest, PushBatchOnClosedQueueFails) {
  RingQueue<int> queue(4);
  queue.Close();
  std::vector<int> items = {1, 2};
  EXPECT_FALSE(queue.PushBatch(items));
  EXPECT_FALSE(queue.Pop().has_value());
}

// Several producers push batches of varying size through the blocking
// MPSC queue: nothing lost, nothing duplicated, each producer's items in
// order. A small ring forces partial claims and parking on both sides.
TEST(RingQueueTest, MpscBatchSoakKeepsPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr std::int64_t kPerProducer = 20000;
  RingQueue<std::int64_t>::Options options;
  options.capacity = 16;
  RingQueue<std::int64_t> queue(options);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      std::vector<std::int64_t> batch;
      std::size_t size = 1;
      for (std::int64_t i = 0; i < kPerProducer;) {
        batch.clear();
        for (std::size_t k = 0; k < size && i < kPerProducer; ++k, ++i) {
          batch.push_back(p * kPerProducer + i);
        }
        ASSERT_TRUE(queue.PushBatch(batch));
        size = size % 37 + 1;  // 1..37: below and above the capacity.
      }
    });
  }
  std::vector<std::int64_t> next_seq(kProducers, 0);
  std::int64_t received = 0;
  std::vector<std::int64_t> batch;
  while (received < kProducers * kPerProducer) {
    batch.clear();
    ASSERT_GT(queue.PopBatch(batch, 32), 0u);
    for (const std::int64_t v : batch) {
      const int p = static_cast<int>(v / kPerProducer);
      ASSERT_EQ(v % kPerProducer, next_seq[p]);
      ++next_seq[p];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(queue.SizeApprox(), 0u);
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

// --- RingQueue (blocking wrapper) ------------------------------------------

TEST(RingQueueTest, PushPopAndDrainAfterClose) {
  RingQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_FALSE(queue.Push(3));  // Closed: push refused.
  auto a = queue.Pop();          // But buffered items still drain.
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 1);
  auto b = queue.Pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 2);
  EXPECT_FALSE(queue.Pop().has_value());  // Drained and closed.
}

TEST(RingQueueTest, BlockingPushBackpressureReleasedByConsumer) {
  RingQueue<int>::Options options;
  options.capacity = 2;
  options.single_producer = true;
  RingQueue<int> queue(options);
  ASSERT_TRUE(queue.Push(0));
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // Blocks until the consumer pops.
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());  // Still blocked on the full ring.
  EXPECT_EQ(*queue.Pop(), 0);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(*queue.Pop(), 1);
  EXPECT_EQ(*queue.Pop(), 2);
}

TEST(RingQueueTest, CloseWakesBlockedConsumerAndProducer) {
  RingQueue<int> full(2);
  ASSERT_TRUE(full.Push(1));
  ASSERT_TRUE(full.Push(2));
  std::thread producer([&] { EXPECT_FALSE(full.Push(3)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full.Close();
  producer.join();

  RingQueue<int> empty(2);
  std::thread blocked_consumer(
      [&] { EXPECT_FALSE(empty.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  empty.Close();
  blocked_consumer.join();
}

TEST(RingQueueTest, PopBatchDrainsUpToLimitInOrder) {
  RingQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(queue.Push(i));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  out.clear();
  EXPECT_EQ(queue.PopBatch(out, 100), 6u);
  EXPECT_EQ(out.front(), 4);
  EXPECT_EQ(out.back(), 9);
}

TEST(RingQueueTest, StatsCountersPopulate) {
  MetricsRegistry metrics;
  RingQueue<int>::Options options;
  options.capacity = 2;
  options.stats.push_retries = metrics.GetCounter("q.push_retries");
  options.stats.batch_drains = metrics.GetCounter("q.batch_drains");
  options.stats.parked_wakeups = metrics.GetCounter("q.parked_wakeups");
  RingQueue<int> queue(options);

  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  std::thread producer([&] { EXPECT_TRUE(queue.Push(3)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<int> out;
  while (out.size() < 3) queue.PopBatch(out, 8);
  producer.join();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_GE(metrics.GetCounter("q.push_retries")->value(), 1);
  EXPECT_GE(metrics.GetCounter("q.batch_drains")->value(), 1);
  // parked_wakeups only fires if the consumer actually parked — can be
  // zero on a fast machine, so just assert it is non-negative.
  EXPECT_GE(metrics.GetCounter("q.parked_wakeups")->value(), 0);
}

// Multi-producer soak through the blocking wrapper: exercises the
// park/wake handshake from both sides under contention. TSan builds run
// this too (tests share the sanitizer CI matrix), which is the
// data-race check for the atomic wait/notify parking protocol.
TEST(RingQueueTest, MpscSoakExactAccounting) {
  constexpr int kProducers = 3;
  constexpr std::int64_t kPerProducer = 20000;
  RingQueue<std::int64_t>::Options options;
  options.capacity = 64;  // Small: forces backpressure parking.
  RingQueue<std::int64_t> queue(options);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::int64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::int64_t> next_seq(kProducers, 0);
  std::int64_t received = 0;
  std::vector<std::int64_t> batch;
  while (received < kProducers * kPerProducer) {
    batch.clear();
    const std::size_t n = queue.PopBatch(batch, 32);
    ASSERT_GT(n, 0u);  // Queue is never closed, so PopBatch must block.
    for (std::int64_t v : batch) {
      const int p = static_cast<int>(v / kPerProducer);
      ASSERT_EQ(v % kPerProducer, next_seq[p]);
      ++next_seq[p];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(queue.SizeApprox(), 0u);
}

// Hand-off stress for the park/wake handshake: a 2-slot ring and 10^6
// single-item hand-offs, so producers find the ring full and the
// consumer finds it empty over and over, and either side parks once its
// spin budget runs out. Parked waits have no timeout, so a lost wakeup
// hangs this test (ctest's TIMEOUT turns that into a failure) instead of
// slowing it down.
void HandOffStress(int producers_count, bool single_producer) {
  constexpr std::int64_t kHandOffs = 1'000'000;
  const std::int64_t per_producer = kHandOffs / producers_count;
  MetricsRegistry metrics;
  RingQueue<std::int64_t>::Options options;
  options.capacity = 2;
  options.single_producer = single_producer;
  options.stats.push_retries = metrics.GetCounter("q.push_retries");
  RingQueue<std::int64_t> queue(options);
  std::vector<std::thread> producers;
  for (int p = 0; p < producers_count; ++p) {
    producers.emplace_back([&queue, p, per_producer] {
      for (std::int64_t i = 0; i < per_producer; ++i) {
        ASSERT_TRUE(queue.Push(p * per_producer + i));
      }
    });
  }
  std::vector<std::int64_t> next_seq(producers_count, 0);
  std::int64_t received = 0;
  std::vector<std::int64_t> batch;
  while (received < per_producer * producers_count) {
    batch.clear();
    ASSERT_GT(queue.PopBatch(batch, 2), 0u);
    for (const std::int64_t v : batch) {
      const int p = static_cast<int>(v / per_producer);
      ASSERT_EQ(v % per_producer, next_seq[p]);  // Per-producer FIFO.
      ++next_seq[p];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  queue.Close();
  EXPECT_FALSE(queue.Pop().has_value());  // Nothing extra, nothing left.
  for (int p = 0; p < producers_count; ++p) {
    EXPECT_EQ(next_seq[p], per_producer);
  }
  // A 2-slot ring fills, so the full-ring path ran.
  EXPECT_GT(metrics.GetCounter("q.push_retries")->value(), 0);
}

TEST(RingQueueTest, SpscHandOffStressThroughTwoSlots) {
  HandOffStress(/*producers_count=*/1, /*single_producer=*/true);
}

TEST(RingQueueTest, MpscHandOffStressThroughTwoSlots) {
  HandOffStress(/*producers_count=*/3, /*single_producer=*/false);
}

// --- SpinPolicy ------------------------------------------------------------

TEST(SpinPolicyTest, ForHostSpinsOnlyWithSeveralAllowedCpus) {
  int allowed = 0;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) ++allowed;
  }
#else
  allowed = static_cast<int>(std::thread::hardware_concurrency());
#endif
  const SpinPolicy policy = SpinPolicy::ForHost();
  EXPECT_EQ(policy.spins == 0, allowed <= 1) << "allowed CPUs " << allowed;
  EXPECT_EQ(policy.yields, SpinPolicy{}.yields);
}

}  // namespace
}  // namespace rtrec::concurrent
