#ifndef RTREC_EVAL_EVALUATOR_H_
#define RTREC_EVAL_EVALUATOR_H_

#include <string>
#include <vector>

#include "core/recommender.h"
#include "data/dataset.h"
#include "eval/metrics.h"

namespace rtrec {

/// Result of one offline evaluation run (the protocol of Section 6.1:
/// six days train, one day test).
struct OfflineResult {
  std::string model_name;
  /// recall@N for N = 1..OfflineEvaluator::kRecallMaxN (index N-1).
  std::vector<double> recall_at;
  /// Average percentile rank (Eq. 14); lower is better.
  double avg_rank = 0.5;
  /// Users that entered the evaluation (had liked test videos).
  std::size_t users_evaluated = 0;

  double recall(std::size_t n) const {
    return n >= 1 && n <= recall_at.size() ? recall_at[n - 1] : 0.0;
  }
};

/// Offline train-then-test evaluation harness shared by the Figure 3/4/5
/// benches and the integration tests.
class OfflineEvaluator {
 public:
  /// Maximum N of the recall curve (Fig. 4 sweeps 1..10).
  static constexpr std::size_t kRecallMaxN = 10;
  /// Length of the full serving list used for the rank metric (the
  /// "ordered list of all videos recommended for user u").
  static constexpr std::size_t kRankListN = 50;

  struct Options {
    /// Minimum confidence for a test action to count as "liked".
    /// 2.0 = a PlayTime action covering roughly a third of the video —
    /// solid engagement, above the accidental-click noise floor.
    double like_threshold = 2.0;
    /// Feedback mapping used to weight test actions.
    FeedbackConfig feedback;
    /// Calls RetrainBatch on the model at each day boundary while
    /// training (needed by batch baselines).
    bool retrain_daily = true;
  };

  /// Constructs with default options.
  OfflineEvaluator();
  explicit OfflineEvaluator(Options options);

  /// Streams `train` through model.Observe (time order), then evaluates
  /// on `test`: for every user with liked test videos, requests a
  /// kRankListN-long recommendation (seeds from the model's own state,
  /// i.e. empty seed list) and scores it against the ordered liked list.
  OfflineResult Evaluate(Recommender& model, const Dataset& train,
                         const Dataset& test) const;

  /// Replays training only (exposed so callers can interleave phases).
  void Train(Recommender& model, const Dataset& train) const;

  /// Builds the per-user eval material from `test` and the model's
  /// responses.
  std::vector<UserEvalData> CollectEvalData(Recommender& model,
                                            const Dataset& test) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace rtrec

#endif  // RTREC_EVAL_EVALUATOR_H_
