#include "core/sim_table.h"

#include <cassert>

#include "core/implicit_feedback.h"

namespace rtrec {

SimTableUpdater::SimTableUpdater(FactorStore* factors, HistoryStore* history,
                                 SimTableStore* table,
                                 VideoTypeResolver type_resolver,
                                 SimilarityConfig config,
                                 FeedbackConfig feedback)
    : factors_(factors),
      history_(history),
      table_(table),
      type_resolver_(std::move(type_resolver)),
      config_(std::move(config)),
      feedback_(feedback) {
  assert(factors_ != nullptr);
  assert(history_ != nullptr);
  assert(table_ != nullptr);
  assert(type_resolver_ != nullptr);
  assert(config_.Validate().ok());
}

std::vector<VideoId> ReadPartnersThenAppend(HistoryStore& history,
                                            const UserAction& action,
                                            double confidence,
                                            const SimilarityConfig& config) {
  std::vector<VideoId> partners;
  if (confidence >= config.min_confidence) {
    for (const HistoryEntry& entry :
         history.GetRecent(action.user, config.max_pairs_per_action)) {
      if (entry.video != action.video) partners.push_back(entry.video);
    }
  }
  if (confidence > 0.0) {
    history.Append(action.user,
                   HistoryEntry{action.video, confidence, action.time});
  }
  return partners;
}

double PairSimilarity(FactorStore& factors, const VideoTypeResolver& types,
                      const SimilarityConfig& config, VideoId a, VideoId b) {
  const FactorEntry ya = factors.GetOrInitVideo(a);
  const FactorEntry yb = factors.GetOrInitVideo(b);
  const double s1 = CfSimilarity(ya.vec, yb.vec);
  const double s2 = TypeSimilarity(types(a), types(b));
  return FuseSimilarity(s1, s2, config.beta);
}

std::size_t SimTableUpdater::OnAction(const UserAction& action) {
  const std::vector<VideoId> partners = ReadPartnersThenAppend(
      *history_, action, ActionConfidence(action, feedback_), config_);
  for (const VideoId partner : partners) {
    RefreshPair(action.video, partner, action.time);
  }
  return partners.size();
}

double SimTableUpdater::RefreshPair(VideoId a, VideoId b, Timestamp now) {
  const double fused = PairSimilarity(*factors_, type_resolver_, config_, a, b);
  table_->Update(a, b, fused, now);
  return fused;
}

}  // namespace rtrec
