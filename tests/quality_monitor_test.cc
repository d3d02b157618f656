#include "quality/quality_monitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "eval/ab_test.h"
#include "kvstore/factor_store.h"
#include "service/recommendation_service.h"

namespace rtrec {
namespace {

UserAction Act(UserId user, VideoId video, ActionType type, Timestamp t) {
  UserAction action;
  action.user = user;
  action.video = video;
  action.type = type;
  if (type == ActionType::kPlayTime) action.view_fraction = 1.0;
  action.time = t;
  return action;
}

MfSample Sample(UserId user, ActionType type, double prediction,
                double rating, Timestamp t = 1000) {
  MfSample sample;
  sample.action = Act(user, /*video=*/7, type, t);
  sample.prediction = prediction;
  sample.rating = rating;
  sample.confidence = rating;
  return sample;
}

double Gauge(MetricsRegistry& metrics, const std::string& name) {
  return metrics.GetDoubleGauge(name)->value();
}

std::int64_t Count(MetricsRegistry& metrics, const std::string& name) {
  return metrics.GetCounter(name)->value();
}

// ---------------------------------------------------------------------
// Signal 1: progressive validation.

constexpr double kAlpha = QualityMonitor::kEwmaAlpha;

TEST(QualityMonitorTest, ProgressiveLoglossExactValues) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});

  // prediction 0 → p = 0.5 → logloss ln 2 for either label.
  monitor.OnMfSample(Sample(1, ActionType::kClick, 0.0, 1.0));
  const double ln2 = std::log(2.0);
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.logloss"), ln2, 1e-12);
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.logloss.click"), ln2,
              1e-12);
  // Calibration EWMA seeds at y − p = 1 − 0.5.
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.bias"), 0.5, 1e-12);
  EXPECT_EQ(Count(metrics, "quality.progressive.samples"), 1);

  // An impression (negative) at prediction 0: loss ln 2 again, bias
  // EWMA moves to (1 − α)·0.5 + α·(0 − 0.5).
  monitor.OnMfSample(Sample(1, ActionType::kImpress, 0.0, 0.0));
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.logloss"), ln2, 1e-12);
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.bias"),
              (1.0 - kAlpha) * 0.5 - kAlpha * 0.5, 1e-12);
  EXPECT_EQ(Count(metrics, "quality.progressive.samples"), 2);

  // A confident correct positive: p = σ(2), EWMA averages in its loss.
  const double p2 = 1.0 / (1.0 + std::exp(-2.0));
  monitor.OnMfSample(Sample(1, ActionType::kClick, 2.0, 1.0));
  const double expected = (1.0 - kAlpha) * ln2 + kAlpha * -std::log(p2);
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.logloss"), expected, 1e-12);
  // The per-type EWMA only saw the two clicks: the same two losses.
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.logloss.click"), expected,
              1e-12);
}

TEST(QualityMonitorTest, ProgressiveSegmentsByGroup) {
  MetricsRegistry metrics;
  QualityMonitor::Options options;
  // One sample per group: each group's EWMA is seeded by it.
  options.group_of = [](UserId user) -> GroupId {
    return user < 100 ? 1 : 2;
  };
  options.group_name = [](GroupId g) {
    return std::string("g") + std::to_string(g);
  };
  QualityMonitor monitor(&metrics, options);

  monitor.OnMfSample(Sample(1, ActionType::kClick, 0.0, 1.0));
  monitor.OnMfSample(Sample(200, ActionType::kClick, 2.0, 1.0));

  const double ln2 = std::log(2.0);
  const double loss2 = -std::log(1.0 / (1.0 + std::exp(-2.0)));
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.logloss.group.g1"), ln2,
              1e-12);
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.logloss.group.g2"), loss2,
              1e-12);
}

TEST(QualityMonitorTest, HookSeesPreStepPredictionFromOnlineMf) {
  MfModelConfig config;
  config.num_factors = 8;
  FactorStore::Options store_options;
  store_options.num_factors = 8;
  FactorStore store(store_options);
  OnlineMf model(&store, config);

  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});
  model.set_validation_hook(&monitor);

  const UserAction action = Act(3, 5, ActionType::kPlayTime, 500);
  // Progressive validation: the sample's prediction must equal the
  // model's prediction BEFORE the action trains it. p = σ(r̂), and the
  // bias gauge, seeded by this first sample, stores y − p.
  const double pre = model.Predict(3, 5);
  const double p = 1.0 / (1.0 + std::exp(-pre));
  model.Update(action);
  EXPECT_EQ(Count(metrics, "quality.progressive.samples"), 1);
  EXPECT_NEAR(Gauge(metrics, "quality.progressive.bias"), 1.0 - p, 1e-9);
  // The step moved the model: predicting again now differs.
  EXPECT_NE(model.Predict(3, 5), pre);
}

TEST(QualityMonitorTest, ImpressionsSampleAsNegativesWithoutTraining) {
  MfModelConfig config;
  config.num_factors = 8;
  FactorStore::Options store_options;
  store_options.num_factors = 8;
  FactorStore store(store_options);
  OnlineMf model(&store, config);

  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});
  model.set_validation_hook(&monitor);

  model.Update(Act(3, 5, ActionType::kImpress, 500));
  EXPECT_EQ(Count(metrics, "quality.progressive.samples"), 1);
  // The impression was scored but must not have initialized the ids.
  EXPECT_FALSE(store.GetUser(3).ok());
  EXPECT_FALSE(store.GetVideo(5).ok());
}

// ---------------------------------------------------------------------
// Signal 2: online recall.

TEST(QualityMonitorTest, HoldoutSelectionIsDeterministicAndSkipsImpressions) {
  MetricsRegistry metrics;
  QualityMonitor::Options options;
  options.holdout_every_n = 1;  // Every engaged action.
  QualityMonitor monitor(&metrics, options);

  const UserAction play = Act(1, 2, ActionType::kPlay, 3);
  EXPECT_TRUE(monitor.ShouldHoldOut(play));
  EXPECT_TRUE(monitor.ShouldHoldOut(play));  // Stable, not counter-based.
  EXPECT_FALSE(monitor.ShouldHoldOut(Act(1, 2, ActionType::kImpress, 3)));

  QualityMonitor::Options off;
  off.holdout_every_n = 0;
  QualityMonitor disabled(&metrics, off);
  EXPECT_FALSE(disabled.ShouldHoldOut(play));
}

TEST(QualityMonitorTest, OnlineRecallExactRatio) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});

  const UserAction a = Act(1, 2, ActionType::kPlay, 3);
  monitor.OnHoldoutResult(a, true);
  monitor.OnHoldoutResult(a, false);
  monitor.OnHoldoutResult(a, false);
  monitor.OnHoldoutResult(a, false);

  EXPECT_EQ(Count(metrics, "quality.holdout.evaluated"), 4);
  EXPECT_EQ(Count(metrics, "quality.holdout.hits"), 1);
  EXPECT_NEAR(Gauge(metrics, "quality.online_recall@10"), 0.25, 1e-12);
}

// ---------------------------------------------------------------------
// Signal 3: CTR join.

std::vector<ScoredVideo> Page(std::vector<VideoId> videos) {
  std::vector<ScoredVideo> page;
  for (VideoId v : videos) page.push_back({v, 1.0});
  return page;
}

TEST(QualityMonitorTest, CtrJoinExactValuesAndSegments) {
  MetricsRegistry metrics;
  QualityMonitor::Options options;
  options.num_arms = 2;
  QualityMonitor monitor(&metrics, options);

  const UserId user = 42;
  const std::size_t arm = AbArmOf(user, 2);
  monitor.OnServed(user, Page({10, 11, 12}), /*degraded=*/false, 1000);
  EXPECT_EQ(Count(metrics, "quality.ctr.impressions"), 3);
  EXPECT_EQ(Count(metrics, "quality.ctr.impressions.primary"), 3);
  EXPECT_EQ(Count(metrics,
                  "quality.ctr.impressions.arm." + std::to_string(arm)),
            3);

  // Click position 1 of the served page.
  monitor.OnEngagement(Act(user, 11, ActionType::kClick, 2000));
  EXPECT_EQ(Count(metrics, "quality.ctr.clicks"), 1);
  EXPECT_NEAR(Gauge(metrics, "quality.ctr.overall"), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(Gauge(metrics, "quality.ctr.primary"), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(Gauge(metrics, "quality.ctr.arm." + std::to_string(arm)),
              1.0 / 3.0, 1e-12);
  // Position-weighted: one click at position 1 → (1/0.85) / 3.
  EXPECT_NEAR(Gauge(metrics, "quality.ctr.position_weighted"),
              (1.0 / 0.85) / 3.0, 1e-12);

  // A degraded page to another user joins into the degraded segment.
  const UserId other = 43;
  monitor.OnServed(other, Page({20, 21}), /*degraded=*/true, 1000);
  monitor.OnEngagement(Act(other, 20, ActionType::kPlay, 1500));
  EXPECT_EQ(Count(metrics, "quality.ctr.impressions.degraded"), 2);
  EXPECT_EQ(Count(metrics, "quality.ctr.clicks.degraded"), 1);
  EXPECT_NEAR(Gauge(metrics, "quality.ctr.degraded"), 0.5, 1e-12);
  // Primary CTR unchanged by degraded traffic.
  EXPECT_NEAR(Gauge(metrics, "quality.ctr.primary"), 1.0 / 3.0, 1e-12);
}

TEST(QualityMonitorTest, DuplicateClickCountsOnce) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});

  monitor.OnServed(1, Page({10, 11}), false, 1000);
  monitor.OnEngagement(Act(1, 10, ActionType::kClick, 1100));
  monitor.OnEngagement(Act(1, 10, ActionType::kPlay, 1200));  // Same slot.

  EXPECT_EQ(Count(metrics, "quality.ctr.clicks"), 1);
  EXPECT_EQ(Count(metrics, "quality.ctr.duplicate_clicks"), 1);
  EXPECT_NEAR(Gauge(metrics, "quality.ctr.overall"), 0.5, 1e-12);
}

TEST(QualityMonitorTest, EngagementWithoutImpressionNeverCountsAsClick) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});

  // No impression served at all.
  monitor.OnEngagement(Act(1, 10, ActionType::kClick, 1000));
  // Impression for a different video than the engagement.
  monitor.OnServed(2, Page({20}), false, 1000);
  monitor.OnEngagement(Act(2, 99, ActionType::kClick, 1100));
  // Impressions are not engagements and never join.
  monitor.OnEngagement(Act(2, 20, ActionType::kImpress, 1100));

  EXPECT_EQ(Count(metrics, "quality.ctr.clicks"), 0);
  EXPECT_EQ(Count(metrics, "quality.ctr.unmatched_engagements"), 2);
}

TEST(QualityMonitorTest, JoinWindowExpiresImpressions) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});
  constexpr Timestamp kWindow = QualityMonitor::kJoinWindowMs;

  monitor.OnServed(1, Page({10}), false, 1000);
  monitor.OnEngagement(
      Act(1, 10, ActionType::kClick, 1000 + kWindow + 1));  // Too late.
  monitor.OnEngagement(Act(1, 10, ActionType::kClick, 900));  // Too early.
  EXPECT_EQ(Count(metrics, "quality.ctr.clicks"), 0);
  EXPECT_EQ(Count(metrics, "quality.ctr.unmatched_engagements"), 2);

  monitor.OnEngagement(
      Act(1, 10, ActionType::kClick, 1000 + kWindow));  // In window.
  EXPECT_EQ(Count(metrics, "quality.ctr.clicks"), 1);
}

TEST(QualityMonitorTest, RingEvictionUnlinksOldImpressions) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});
  constexpr std::size_t kRing = QualityMonitor::kRingSize;

  monitor.OnServed(1, Page({10, 11}), false, 1000);
  // A full ring of user 2's impressions evicts both of user 1's.
  for (std::size_t k = 0; k < kRing / 2; ++k) {
    monitor.OnServed(2, Page({20 + 2 * k, 21 + 2 * k}), false, 1000);
  }
  monitor.OnEngagement(Act(1, 10, ActionType::kClick, 1100));
  EXPECT_EQ(Count(metrics, "quality.ctr.clicks"), 0);
  EXPECT_EQ(Count(metrics, "quality.ctr.unmatched_engagements"), 1);

  monitor.OnEngagement(Act(2, 21, ActionType::kClick, 1100));
  EXPECT_EQ(Count(metrics, "quality.ctr.clicks"), 1);
  // Impressions counters are cumulative; CTR derives from them, so the
  // ratio reflects all served impressions, not just live slots.
  EXPECT_EQ(Count(metrics, "quality.ctr.impressions"),
            static_cast<std::int64_t>(2 + kRing));
  // Every live slot holds a distinct video.
  EXPECT_NEAR(Gauge(metrics, "quality.drift.served_coverage"), 1.0, 1e-12);
}

// ---------------------------------------------------------------------
// Signal 4: drift watchdog.

TEST(QualityMonitorTest, WatchdogFiresLoglossAndNormAlerts) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});

  // Badly wrong confident predictions, alternating an engagement at
  // r̂ = −3 and an impression at r̂ = +3: each loses −ln σ(−3) ≈ 3.05
  // (> kLoglossAlert), while y − p alternates ±0.95 and its EWMA stays
  // far inside kCalibrationAlert by the first watchdog check.
  for (std::size_t i = 0; i < QualityMonitor::kWatchdogEveryN; ++i) {
    MfSample bad = i % 2 == 0 ? Sample(1, ActionType::kClick, -3.0, 1.0)
                              : Sample(1, ActionType::kImpress, 3.0, 0.0);
    bad.user_norm = 20.0;  // Twice kEmbeddingNormAlert.
    bad.video_norm = 20.0;
    monitor.OnMfSample(bad);
  }

  EXPECT_GE(Count(metrics, "quality.alerts.logloss"), 1);
  EXPECT_GE(Count(metrics, "quality.alerts.embedding_norm"), 1);
  EXPECT_EQ(Count(metrics, "quality.alerts.calibration"), 0);
  EXPECT_NEAR(Gauge(metrics, "quality.drift.embedding_norm"), 20.0, 1e-12);
}

TEST(QualityMonitorTest, WatchdogFiresStalenessAndCoverageAlerts) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});
  constexpr std::size_t kRing = QualityMonitor::kRingSize;

  // Train at t=1000, serve 4 s past the staleness threshold.
  const Timestamp now = 1000 + QualityMonitor::kStalenessAlertMs + 4000;
  monitor.OnMfSample(Sample(1, ActionType::kClick, 0.0, 1.0, 1000));
  // Before the ring is half full, one video everywhere is not an alert.
  for (std::size_t k = 0; k + 1 < kRing / 2; ++k) {
    monitor.OnServed(k, Page({10}), false, now);
  }
  EXPECT_EQ(Count(metrics, "quality.alerts.coverage"), 0);
  // The same single video fills the whole ring → coverage 1/kRingSize,
  // under kCoverageAlert.
  for (std::size_t k = kRing / 2 - 1; k < kRing; ++k) {
    monitor.OnServed(k, Page({10}), false, now);
  }

  EXPECT_GE(Count(metrics, "quality.alerts.staleness"), 1);
  EXPECT_GE(Count(metrics, "quality.alerts.coverage"), 1);
  EXPECT_EQ(metrics.GetGauge("quality.drift.sim_staleness_ms")->value(),
            QualityMonitor::kStalenessAlertMs + 4000);
  EXPECT_NEAR(Gauge(metrics, "quality.drift.served_coverage"),
              1.0 / static_cast<double>(kRing), 1e-12);
}

TEST(QualityMonitorTest, StalenessNeverReadsNegative) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});
  auto* staleness = metrics.GetGauge("quality.drift.sim_staleness_ms");

  monitor.OnMfSample(Sample(1, ActionType::kClick, 0.0, 1.0, 1000));
  // A serve whose clock is behind the newest trained action is fresh.
  monitor.OnServed(1, Page({10}), false, 500);
  EXPECT_EQ(staleness->value(), 0);
  monitor.OnServed(1, Page({10}), false, 1500);
  EXPECT_EQ(staleness->value(), 500);
  EXPECT_EQ(Count(metrics, "quality.alerts.staleness"), 0);
}

TEST(QualityMonitorTest, WatchdogFiresLabelShiftOnEngagementRateJump) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});
  // The warm-up guard: 5 / kLabelSlowAlpha = 125,000 samples.
  const int warmup = static_cast<int>(5.0 / QualityMonitor::kLabelSlowAlpha);

  // A stationary stream: engagement rate pinned at 0.5 by strict
  // alternation. Covers the warm-up guard and then some — the label
  // EWMAs sit within one ripple (α · 0.5) of each other, far under the
  // alert threshold, so a steady stream never fires.
  for (int i = 0; i < warmup + 25000; ++i) {
    monitor.OnMfSample(i % 2 == 0
                           ? Sample(1, ActionType::kClick, 0.0, 1.0)
                           : Sample(1, ActionType::kImpress, 0.0, 0.0));
  }
  EXPECT_EQ(Count(metrics, "quality.alerts.label_shift"), 0);

  // The planted shift: engagement rate jumps to 1.0. The fast EWMA
  // races ahead of the slow one and the gap crosses the threshold while
  // per-sample losses stay individually unremarkable — exactly the
  // drift signature SGD re-calibration hides from the loss channels.
  for (int i = 0; i < 1000; ++i) {
    monitor.OnMfSample(Sample(1, ActionType::kClick, 0.0, 1.0));
  }
  EXPECT_GT(Count(metrics, "quality.alerts.label_shift"), 0);
  EXPECT_GT(Gauge(metrics, "quality.drift.label_shift"), 0.0);
  // Attribution: no other training-side alert explains the firing.
  EXPECT_EQ(Count(metrics, "quality.alerts.logloss"), 0);
  EXPECT_EQ(Count(metrics, "quality.alerts.calibration"), 0);
  EXPECT_EQ(Count(metrics, "quality.alerts.bias_drift"), 0);
}

// ---------------------------------------------------------------------
// End-to-end through RecommendationService.

TEST(QualityMonitorTest, ServiceTrainsEachActionThroughTheHookExactlyOnce) {
  MetricsRegistry metrics;
  RecommendationService::Options options;
  options.engine.model.num_factors = 8;
  options.metrics = &metrics;
  options.quality.holdout_every_n = 0;  // Isolate progressive counting.
  RecommendationService service([](VideoId) -> VideoType { return 0; },
                                options);

  // A profiled user trains both its group engine and the global engine;
  // the sample must still be recorded once (hook on global only).
  UserProfile profile;
  service.RegisterProfile(7, profile);
  service.Observe(Act(7, 10, ActionType::kPlayTime, 1000));
  EXPECT_EQ(Count(metrics, "quality.progressive.samples"), 1);

  service.Observe(Act(8, 10, ActionType::kPlayTime, 2000));
  EXPECT_EQ(Count(metrics, "quality.progressive.samples"), 2);
}

TEST(QualityMonitorTest, ServiceEndToEndRecallCtrAndScrape) {
  MetricsRegistry metrics;
  RecommendationService::Options options;
  options.engine.model.num_factors = 8;
  options.metrics = &metrics;
  options.quality.holdout_every_n = 1;  // Every engaged action scored.
  RecommendationService service([](VideoId) -> VideoType { return 0; },
                                options);

  // Strong co-watch structure so held-out actions are predictable: all
  // users cycle the same three videos.
  Timestamp t = 0;
  for (int round = 0; round < 20; ++round) {
    for (UserId user = 1; user <= 6; ++user) {
      for (VideoId video = 10; video <= 12; ++video) {
        service.Observe(Act(user, video, ActionType::kPlayTime, t += 1000));
      }
    }
  }
  EXPECT_GT(Count(metrics, "quality.holdout.evaluated"), 0);
  EXPECT_GT(Count(metrics, "quality.holdout.hits"), 0);
  EXPECT_GT(Gauge(metrics, "quality.online_recall@10"), 0.0);
  EXPECT_LE(Gauge(metrics, "quality.online_recall@10"), 1.0);
  EXPECT_GT(Count(metrics, "quality.progressive.samples"), 0);
  const double logloss = Gauge(metrics, "quality.progressive.logloss");
  EXPECT_TRUE(std::isfinite(logloss));
  EXPECT_GT(logloss, 0.0);

  // Serve a page, then engage with its top pick → CTR joins.
  RecRequest request;
  request.user = 1;
  request.top_n = 5;
  request.now = t;
  auto page = service.Recommend(request);
  ASSERT_TRUE(page.ok());
  ASSERT_FALSE(page->empty());
  service.Observe(Act(1, (*page)[0].video, ActionType::kClick, t + 10));
  EXPECT_EQ(Count(metrics, "quality.ctr.clicks"), 1);
  EXPECT_GT(Count(metrics, "quality.ctr.impressions"), 0);
  EXPECT_GT(Gauge(metrics, "quality.ctr.overall"), 0.0);
  EXPECT_LE(Gauge(metrics, "quality.ctr.overall"), 1.0);

  // Degraded path records into the degraded segment.
  auto fallback = service.FallbackRecommend(request);
  ASSERT_FALSE(fallback.empty());
  EXPECT_GT(Count(metrics, "quality.ctr.impressions.degraded"), 0);

  // The whole section is visible on a Prometheus scrape, sanitized.
  const std::string text = metrics.PrometheusText();
  EXPECT_NE(text.find("quality_progressive_logloss"), std::string::npos);
  EXPECT_NE(text.find("quality_online_recall_10"), std::string::npos);
  EXPECT_NE(text.find("quality_ctr_overall"), std::string::npos);
  for (const char* alert : {"logloss", "calibration", "embedding_norm",
                            "bias_drift", "label_shift", "staleness",
                            "coverage"}) {
    EXPECT_NE(text.find("quality_alerts_" + std::string(alert) + "_total"),
              std::string::npos)
        << alert;
  }
}

TEST(QualityMonitorTest, ConcurrentMixedTrafficSmoke) {
  MetricsRegistry metrics;
  QualityMonitor monitor(&metrics, QualityMonitor::Options{});

  // 4 × 1500 pages of two slots wrap the ring about three times, and
  // 6000 samples run the watchdog 23 times, all under contention.
  constexpr int kRounds = 1500;
  static_assert(4 * kRounds * 2 > 2 * QualityMonitor::kRingSize);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&monitor, i] {
      for (int n = 0; n < kRounds; ++n) {
        const UserId user = static_cast<UserId>(i * 1000 + n % 17);
        const VideoId video = static_cast<VideoId>(n % 31);
        monitor.OnServed(user, Page({video, video + 1}), n % 5 == 0,
                         1000 + n);
        monitor.OnEngagement(Act(user, video, ActionType::kClick, 1001 + n));
        monitor.OnMfSample(Sample(user, ActionType::kClick,
                                  0.1 * (n % 10), 1.0, 1000 + n));
        monitor.OnHoldoutResult(Act(user, video, ActionType::kPlay, n),
                                n % 3 == 0);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Conservation: every engagement either joined, was a duplicate, or
  // was unmatched.
  const std::int64_t engagements = 4 * kRounds;
  EXPECT_EQ(Count(metrics, "quality.ctr.clicks") +
                Count(metrics, "quality.ctr.duplicate_clicks") +
                Count(metrics, "quality.ctr.unmatched_engagements"),
            engagements);
  EXPECT_EQ(Count(metrics, "quality.progressive.samples"), 4 * kRounds);
  EXPECT_EQ(Count(metrics, "quality.holdout.evaluated"), 4 * kRounds);
}

}  // namespace
}  // namespace rtrec
