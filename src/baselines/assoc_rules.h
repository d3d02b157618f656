#ifndef RTREC_BASELINES_ASSOC_RULES_H_
#define RTREC_BASELINES_ASSOC_RULES_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/implicit_feedback.h"
#include "core/recommender.h"

namespace rtrec {

/// The "AR method" of Section 6.2: an association-rule recommender
/// trained in batch mode once per (simulated) day. Sessions are
/// user-day baskets of engaged videos; pairwise rules i → j are scored
/// by confidence = count(i,j) / count(i), thresholded on support.
///
/// Observe() only buffers actions; RetrainBatch() mines the rules —
/// exactly the offline cadence the paper contrasts with rMF's real-time
/// updates. Thread-safe.
class AssociationRuleRecommender : public Recommender {
 public:
  /// Per-antecedent retained consequents.
  static constexpr std::size_t kMaxRulesPerVideo = 50;
  /// Per-session basket size cap (bounds the quadratic pair blowup of
  /// heavy users).
  static constexpr std::size_t kMaxBasket = 32;
  /// Actions below this confidence weight do not enter baskets.
  static constexpr double kMinActionConfidence = 1.0;

  struct Options {
    std::size_t top_n = 10;
    /// Minimum co-occurrence count for a rule to be kept.
    std::size_t min_support_count = 2;
    /// Minimum rule confidence.
    double min_confidence = 0.05;
    /// Score rules by lift = confidence / P(consequent) instead of raw
    /// confidence. Raw confidence is popularity-biased (everything
    /// implies the head videos); lift measures the actual association.
    bool use_lift = true;
    /// Maps actions to confidence weights.
    FeedbackConfig feedback;
  };

  /// Constructs with default options.
  AssociationRuleRecommender();
  explicit AssociationRuleRecommender(Options options);

  StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) override;

  /// Buffers the action into the user's current-day basket.
  void Observe(const UserAction& action) override;

  /// Mines rules from all complete baskets observed so far. Typically
  /// called once per day (the paper: "trained in batch mode for every
  /// day").
  void RetrainBatch(Timestamp now) override;

  std::string name() const override { return "AR"; }

  /// Number of antecedents with at least one rule (post-training).
  std::size_t NumAntecedents() const;

  /// True iff `video` can currently be recommended, i.e. appears as the
  /// consequent of at least one mined rule. Used by the freshness
  /// ablation to measure batch propagation delay.
  bool IsConsequent(VideoId video) const;

 private:
  struct Rule {
    VideoId consequent = 0;
    double confidence = 0.0;
    double support = 0.0;
    /// confidence / P(consequent); > 1 means a real association.
    double lift = 0.0;
  };

  Options options_;

  mutable std::mutex mu_;
  // (user, day) -> basket of engaged videos. Day boundaries come from the
  // action timestamps.
  std::unordered_map<std::uint64_t, std::unordered_set<VideoId>> baskets_;
  // Per-user recent engaged videos (serving-side seeds for users with no
  // request seeds).
  std::unordered_map<UserId, std::vector<VideoId>> recent_;
  // Mined model: antecedent -> rules sorted by descending confidence.
  std::unordered_map<VideoId, std::vector<Rule>> rules_;
};

}  // namespace rtrec

#endif  // RTREC_BASELINES_ASSOC_RULES_H_
