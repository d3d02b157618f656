#include <gtest/gtest.h>

#include "eval/experiment_runner.h"

namespace rtrec {
namespace {

// The million-scale scenario (diurnal load, a day-1 flash crowd, a day-2
// demographic drift) on a 20k-user / 5k-video world, through the same
// RunScenarioStream that bench_million_scale runs on the full 1M-user
// world, with the same gates.
TEST(ScenarioStreamTest, SmokeWorldTripsTheWatchdogWithinTheRssCeiling) {
  WorldConfig config = MillionScaleWorldConfig();
  config.population.num_users = 20000;
  config.catalog.num_videos = 5000;
  config.population.mean_activity = 0.2;
  const ScenarioStreamResult r = RunScenarioStream(config, /*days=*/3);

  ASSERT_EQ(r.days.size(), 3u);
  EXPECT_GT(r.actions, 0);
  EXPECT_GT(r.actions_per_sec(), 0.0);
  // The planted drift must be noticed: more alerts after the drift day
  // than before it, on the label-shift channel in particular.
  EXPECT_GT(r.alerts_after_drift, r.alerts_before_drift);
  EXPECT_GT(r.label_shift_alerts_after_drift,
            r.label_shift_alerts_before_drift);
  EXPECT_GT(r.flash_crowd_impression_share, 0.1);
  EXPECT_GT(r.rss_peak_mb, 0.0);
  EXPECT_LE(r.rss_peak_mb, 2048.0);
}

}  // namespace
}  // namespace rtrec
