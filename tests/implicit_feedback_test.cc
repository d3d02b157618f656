#include "core/implicit_feedback.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rtrec {
namespace {

UserAction Action(ActionType type, double fraction = 0.0) {
  UserAction a;
  a.user = 1;
  a.video = 2;
  a.type = type;
  a.view_fraction = fraction;
  a.time = 1000;
  return a;
}

TEST(FeedbackConfigTest, DefaultsValidate) {
  EXPECT_TRUE(FeedbackConfig{}.Validate().ok());
}

TEST(FeedbackConfigTest, RejectsBadRanges) {
  FeedbackConfig c;
  c.playtime_a = 0.5;
  c.playtime_b = 1.0;  // a < b violates Eq. 6's constraint.
  EXPECT_FALSE(c.Validate().ok());

  FeedbackConfig d;
  d.min_view_rate = 0.0;
  EXPECT_FALSE(d.Validate().ok());
  d.min_view_rate = 1.0;
  EXPECT_FALSE(d.Validate().ok());

  FeedbackConfig e;
  e.click_weight = -1.0;
  EXPECT_FALSE(e.Validate().ok());
}

TEST(ActionConfidenceTest, Table1Ordering) {
  // Impress < Click < Play < full PlayTime <= Comment: engagement level
  // orders confidence (Table 1's premise).
  const FeedbackConfig config;
  const double impress = ActionConfidence(Action(ActionType::kImpress), config);
  const double click = ActionConfidence(Action(ActionType::kClick), config);
  const double play = ActionConfidence(Action(ActionType::kPlay), config);
  const double watch_full =
      ActionConfidence(Action(ActionType::kPlayTime, 1.0), config);
  const double comment =
      ActionConfidence(Action(ActionType::kComment), config);
  EXPECT_EQ(impress, 0.0);
  EXPECT_LT(impress, click);
  EXPECT_LT(click, play);
  EXPECT_LT(play, watch_full);
  EXPECT_LE(watch_full, comment);
}

TEST(ActionConfidenceTest, PlayTimeFollowsEq6) {
  const FeedbackConfig config;  // a=2.5, b=1.0, log10.
  EXPECT_NEAR(ActionConfidence(Action(ActionType::kPlayTime, 1.0), config),
              2.5, 1e-9);
  EXPECT_NEAR(ActionConfidence(Action(ActionType::kPlayTime, 0.1), config),
              1.5, 1e-9);
  EXPECT_NEAR(ActionConfidence(Action(ActionType::kPlayTime, 0.5), config),
              2.5 + std::log10(0.5), 1e-9);
}

TEST(ActionConfidenceTest, PlayTimeWeightsSpanAMinusBToA) {
  // Eq. 6's range: w in [a-b, a] for vrate in [0.1, 1] with log10.
  const FeedbackConfig config;
  for (double vrate = 0.1; vrate <= 1.0; vrate += 0.05) {
    const double w =
        ActionConfidence(Action(ActionType::kPlayTime, vrate), config);
    EXPECT_GE(w, config.playtime_a - config.playtime_b - 1e-9);
    EXPECT_LE(w, config.playtime_a + 1e-9);
  }
}

TEST(ActionConfidenceTest, PlayTimeIsMonotoneInViewRate) {
  const FeedbackConfig config;
  double prev = 0.0;
  for (double vrate = 0.1; vrate <= 1.0; vrate += 0.01) {
    const double w =
        ActionConfidence(Action(ActionType::kPlayTime, vrate), config);
    EXPECT_GE(w, prev);
    prev = w;
  }
}

TEST(ActionConfidenceTest, InefficientPlayTimeFallsBackToPlayWeight) {
  // vrate < 0.1 is treated as an inefficient play, not a negative signal
  // (Section 3.2).
  const FeedbackConfig config;
  EXPECT_DOUBLE_EQ(
      ActionConfidence(Action(ActionType::kPlayTime, 0.05), config),
      config.play_weight);
  EXPECT_DOUBLE_EQ(
      ActionConfidence(Action(ActionType::kPlayTime, 0.0), config),
      config.play_weight);
}

TEST(ActionConfidenceTest, ViewFractionIsClamped) {
  const FeedbackConfig config;
  // Over-unity fractions (clock skew, replays) clamp to 1.
  EXPECT_DOUBLE_EQ(
      ActionConfidence(Action(ActionType::kPlayTime, 1.7), config),
      config.playtime_a);
  // Negative fractions clamp to 0 -> inefficient play.
  EXPECT_DOUBLE_EQ(
      ActionConfidence(Action(ActionType::kPlayTime, -0.3), config),
      config.play_weight);
}

TEST(ActionConfidenceTest, AllTypesReturnConfiguredWeights) {
  FeedbackConfig config;
  config.like_weight = 2.2;
  config.share_weight = 3.3;
  EXPECT_DOUBLE_EQ(ActionConfidence(Action(ActionType::kLike), config), 2.2);
  EXPECT_DOUBLE_EQ(ActionConfidence(Action(ActionType::kShare), config), 3.3);
}

TEST(ActionConfidenceTest, NonFiniteViewFractionsFallBackToPlayWeight) {
  const FeedbackConfig config;
  const double bad_values[] = {std::nan(""), INFINITY, -INFINITY};
  for (double bad : bad_values) {
    const double w =
        ActionConfidence(Action(ActionType::kPlayTime, bad), config);
    EXPECT_DOUBLE_EQ(w, config.play_weight);
    EXPECT_TRUE(std::isfinite(w));
  }
}

TEST(ActionConfidenceTest, LinearLawSharesEndpointsWithLogLaw) {
  FeedbackConfig log_config;
  FeedbackConfig linear_config;
  linear_config.playtime_law = PlayTimeLaw::kLinear;
  // w(1) = a for both laws.
  EXPECT_DOUBLE_EQ(
      ActionConfidence(Action(ActionType::kPlayTime, 1.0), linear_config),
      ActionConfidence(Action(ActionType::kPlayTime, 1.0), log_config));
  // Linear at vrate -> 0 tends to a - b; log at vrate = 0.1 equals a - b.
  EXPECT_NEAR(
      ActionConfidence(Action(ActionType::kPlayTime, 0.1), linear_config),
      linear_config.playtime_a - linear_config.playtime_b +
          linear_config.playtime_b * 0.1,
      1e-9);
}

TEST(ActionConfidenceTest, LogLawIsConcaveAboveLinearLaw) {
  // Eq. 6 rewards early watching more than the linear alternative: for
  // every interior vrate the log weight exceeds the linear weight.
  FeedbackConfig log_config;
  FeedbackConfig linear_config;
  linear_config.playtime_law = PlayTimeLaw::kLinear;
  for (double vrate = 0.15; vrate < 1.0; vrate += 0.1) {
    const double w_log =
        ActionConfidence(Action(ActionType::kPlayTime, vrate), log_config);
    const double w_linear = ActionConfidence(
        Action(ActionType::kPlayTime, vrate), linear_config);
    EXPECT_GT(w_log, w_linear) << "vrate " << vrate;
  }
}

TEST(ActionConfidenceTest, LinearLawIsMonotone) {
  FeedbackConfig config;
  config.playtime_law = PlayTimeLaw::kLinear;
  double prev = 0.0;
  for (double vrate = 0.1; vrate <= 1.0; vrate += 0.05) {
    const double w =
        ActionConfidence(Action(ActionType::kPlayTime, vrate), config);
    EXPECT_GE(w, prev);
    prev = w;
  }
}

TEST(BinaryRatingTest, Eq7Binarization) {
  EXPECT_EQ(BinaryRating(0.0), 0);
  EXPECT_EQ(BinaryRating(-1.0), 0);
  EXPECT_EQ(BinaryRating(0.001), 1);
  EXPECT_EQ(BinaryRating(3.0), 1);
}

TEST(ActionTypeStringsTest, RoundTrip) {
  for (int i = 0; i < kNumActionTypes; ++i) {
    const ActionType type = static_cast<ActionType>(i);
    auto parsed = ActionTypeFromString(ActionTypeToString(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(ActionTypeFromString("bogus").ok());
}

}  // namespace
}  // namespace rtrec
