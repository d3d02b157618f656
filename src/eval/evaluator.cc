#include "eval/evaluator.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace rtrec {

OfflineEvaluator::OfflineEvaluator() : OfflineEvaluator(Options{}) {}

OfflineEvaluator::OfflineEvaluator(Options options)
    : options_(std::move(options)) {}

void OfflineEvaluator::Train(Recommender& model, const Dataset& train) const {
  Timestamp current_day = -1;
  for (const UserAction& action : train.actions()) {
    const Timestamp day = action.time / kMillisPerDay;
    if (options_.retrain_daily && current_day >= 0 && day != current_day) {
      model.RetrainBatch(current_day * kMillisPerDay + kMillisPerDay);
    }
    current_day = day;
    model.Observe(action);
  }
  if (options_.retrain_daily && current_day >= 0) {
    model.RetrainBatch(current_day * kMillisPerDay + kMillisPerDay);
  }
}

std::vector<UserEvalData> OfflineEvaluator::CollectEvalData(
    Recommender& model, const Dataset& test) const {
  // Liked videos per user with their best confidence, from test actions.
  struct Liked {
    VideoId video;
    double confidence;
  };
  std::unordered_map<UserId, std::unordered_map<VideoId, double>> liked_map;
  Timestamp test_start = 0;
  if (!test.actions().empty()) test_start = test.actions().front().time;
  for (const UserAction& action : test.actions()) {
    const double confidence = ActionConfidence(action, options_.feedback);
    if (confidence < options_.like_threshold) continue;
    double& best = liked_map[action.user][action.video];
    best = std::max(best, confidence);
  }

  std::vector<UserEvalData> out;
  out.reserve(liked_map.size());
  // Deterministic user order.
  std::map<UserId, std::vector<Liked>> ordered;
  for (const auto& [user, videos] : liked_map) {
    auto& list = ordered[user];
    list.reserve(videos.size());
    for (const auto& [video, confidence] : videos) {
      list.push_back(Liked{video, confidence});
    }
  }

  for (auto& [user, liked] : ordered) {
    // Ordered interested list: by descending confidence, id tie-break.
    std::sort(liked.begin(), liked.end(),
              [](const Liked& a, const Liked& b) {
                if (a.confidence != b.confidence) {
                  return a.confidence > b.confidence;
                }
                return a.video < b.video;
              });

    RecRequest request;
    request.user = user;
    request.top_n = kRankListN;
    request.now = test_start;
    StatusOr<std::vector<ScoredVideo>> recs = model.Recommend(request);

    UserEvalData data;
    data.user = user;
    if (recs.ok()) {
      data.recommended.reserve(recs->size());
      for (const ScoredVideo& v : *recs) data.recommended.push_back(v.video);
    }
    data.liked.reserve(liked.size());
    for (const Liked& l : liked) data.liked.push_back(l.video);
    out.push_back(std::move(data));
  }
  return out;
}

OfflineResult OfflineEvaluator::Evaluate(Recommender& model,
                                         const Dataset& train,
                                         const Dataset& test) const {
  Train(model, train);
  const std::vector<UserEvalData> data = CollectEvalData(model, test);

  OfflineResult result;
  result.model_name = model.name();
  result.recall_at = RecallCurve(data, kRecallMaxN);
  result.avg_rank = AverageRank(data);
  for (const UserEvalData& u : data) {
    if (!u.liked.empty()) ++result.users_evaluated;
  }
  return result;
}

}  // namespace rtrec
