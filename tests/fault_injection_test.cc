#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace rtrec {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    FaultInjector::Instance().SetMetrics(nullptr);
  }
};

TEST_F(FaultInjectionTest, DisarmedPointIsOkAndUnarmed) {
  EXPECT_FALSE(FaultInjector::AnyArmed());
  EXPECT_TRUE(RTREC_FAULT_POINT("test.never_armed").ok());
}

TEST_F(FaultInjectionTest, ArmedErrorFiresWithCodeAndPointName) {
  FaultInjector::Instance().Arm(
      "test.error", FaultSpec::Error(StatusCode::kCorruption)
                        .WithMessage("disk went away"));
  EXPECT_TRUE(FaultInjector::AnyArmed());
  Status status = RTREC_FAULT_POINT("test.error");
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("disk went away"), std::string::npos);
  EXPECT_NE(status.message().find("test.error"), std::string::npos);
  // Other points stay clean.
  EXPECT_TRUE(RTREC_FAULT_POINT("test.other").ok());
}

TEST_F(FaultInjectionTest, DisarmRestoresOk) {
  FaultInjector::Instance().Arm("test.error", FaultSpec::Error());
  ASSERT_FALSE(RTREC_FAULT_POINT("test.error").ok());
  FaultInjector::Instance().Disarm("test.error");
  EXPECT_TRUE(RTREC_FAULT_POINT("test.error").ok());
  EXPECT_FALSE(FaultInjector::AnyArmed());
}

TEST_F(FaultInjectionTest, EveryNthFiresOnExactMultiples) {
  FaultInjector::Instance().Arm("test.nth",
                                FaultSpec::Error().WithEveryNth(3));
  int failures = 0;
  for (int i = 1; i <= 12; ++i) {
    if (!RTREC_FAULT_POINT("test.nth").ok()) ++failures;
  }
  EXPECT_EQ(failures, 4);  // Hits 3, 6, 9, 12.
  EXPECT_EQ(FaultInjector::Instance().InjectedCount("test.nth"), 4u);
}

TEST_F(FaultInjectionTest, OneShotFiresExactlyOnce) {
  FaultInjector::Instance().Arm("test.once",
                                FaultSpec::Error().WithOneShot());
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (!RTREC_FAULT_POINT("test.once").ok()) ++failures;
  }
  EXPECT_EQ(failures, 1);
  // Re-arming resets the shot.
  FaultInjector::Instance().Arm("test.once",
                                FaultSpec::Error().WithOneShot());
  EXPECT_FALSE(RTREC_FAULT_POINT("test.once").ok());
}

TEST_F(FaultInjectionTest, ProbabilityRoughlyHonored) {
  FaultInjector::Instance().Arm("test.prob",
                                FaultSpec::Error().WithProbability(0.2));
  int failures = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (!RTREC_FAULT_POINT("test.prob").ok()) ++failures;
  }
  // 20% +- generous slack; the Rng is deterministic per thread so this
  // does not flake.
  EXPECT_GT(failures, kTrials / 10);
  EXPECT_LT(failures, kTrials / 2);
}

TEST_F(FaultInjectionTest, LatencyActionSleepsAndReturnsOk) {
  FaultInjector::Instance().Arm("test.slow", FaultSpec::Latency(30));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(RTREC_FAULT_POINT("test.slow").ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 25);
}

TEST_F(FaultInjectionTest, MetricsCountInjections) {
  MetricsRegistry metrics;
  FaultInjector::Instance().SetMetrics(&metrics);
  FaultInjector::Instance().Arm("test.counted", FaultSpec::Error());
  for (int i = 0; i < 3; ++i) (void)RTREC_FAULT_POINT("test.counted");
  EXPECT_EQ(metrics.GetCounter("fault.injected")->value(), 3u);
  EXPECT_EQ(metrics.GetCounter("fault.injected.test.counted")->value(), 3u);
}

TEST_F(FaultInjectionTest, ConcurrentHitsAreSafe) {
  FaultInjector::Instance().Arm("test.race",
                                FaultSpec::Error().WithProbability(0.5));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&failures] {
      for (int i = 0; i < 2000; ++i) {
        if (!RTREC_FAULT_POINT("test.race").ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(failures.load(), 0);
  EXPECT_EQ(FaultInjector::Instance().InjectedCount("test.race"),
            static_cast<std::uint64_t>(failures.load()));
}

}  // namespace
}  // namespace rtrec
