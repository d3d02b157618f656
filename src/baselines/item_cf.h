#ifndef RTREC_BASELINES_ITEM_CF_H_
#define RTREC_BASELINES_ITEM_CF_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/top_k.h"
#include "core/implicit_feedback.h"
#include "core/recommender.h"
#include "kvstore/history_store.h"

namespace rtrec {

/// Incremental item-based collaborative filtering in the style of the
/// practical production CF the paper cites as prior work ([17], TencentRec):
/// co-occurrence counts between a new action's video and the user's recent
/// history are updated online, and item-item similarity is the cosine-
/// normalized co-count  c_ij / sqrt(c_i · c_j).
///
/// Included both as an additional baseline and as the neighbourhood-CF
/// reference the paper argues model-based CF beats.
class ItemCfRecommender : public Recommender {
 public:
  /// Actions below this confidence are ignored.
  static constexpr double kMinActionConfidence = 1.0;

  struct Options {
    std::size_t top_n = 10;
    /// Neighbour list length per video.
    std::size_t top_k = 50;
    /// History entries paired with each new action.
    std::size_t max_pairs_per_action = 16;
    /// Per-user history retention.
    std::size_t history_per_user = 64;
    FeedbackConfig feedback;
  };

  /// Constructs with default options.
  ItemCfRecommender();
  explicit ItemCfRecommender(Options options);

  StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) override;

  /// Real-time co-occurrence update.
  void Observe(const UserAction& action) override;

  std::string name() const override { return "ItemCF"; }

  /// Cosine-normalized similarity of (a, b) from current counts.
  double Similarity(VideoId a, VideoId b) const;

 private:
  void BumpPair(VideoId a, VideoId b);

  Options options_;
  HistoryStore history_;

  mutable std::mutex mu_;
  std::unordered_map<VideoId, double> item_count_;
  std::unordered_map<VideoPair, double, VideoPairHash> pair_count_;
  // Per-video co-occurrence neighbour lists (by raw co-count; similarity
  // normalization happens at serving time).
  std::unordered_map<VideoId, TopK<VideoId>> neighbors_;
};

}  // namespace rtrec

#endif  // RTREC_BASELINES_ITEM_CF_H_
