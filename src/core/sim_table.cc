#include "core/sim_table.h"

#include <cassert>
#include <span>

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

void ReadPartnersThenAppend(HistoryStore& history, const UserAction& action,
                            double confidence, const SimilarityConfig& config,
                            std::vector<std::int64_t>& partners) {
  const std::size_t limit =
      confidence >= config.min_confidence ? config.max_pairs_per_action : 0;
  history.ReadRecentThenAppend(
      action.user, limit, HistoryEntry{action.video, confidence, action.time},
      /*append=*/confidence > 0.0, partners);
}

double PairSimilarity(FactorStore& factors, const VideoTypeResolver& types,
                      const SimilarityConfig& config, VideoId a, VideoId b) {
  // Both vectors are dequantized into this thread's scratch buffer,
  // sized from num_factors on first use, so a pair allocates nothing.
  thread_local std::vector<float> buffer;
  const auto f = static_cast<std::size_t>(factors.num_factors());
  buffer.resize(2 * f);
  const std::span<float> ya(buffer.data(), f);
  const std::span<float> yb(buffer.data() + f, f);
  factors.GetOrInitVideo(a, ya);
  factors.GetOrInitVideo(b, yb);
  const double s1 = CfSimilarity(ya, yb);
  const double s2 = TypeSimilarity(types(a), types(b));
  return FuseSimilarity(s1, s2, config.beta);
}

std::size_t SimTableUpdater::OnAction(const UserAction& action) {
  std::vector<std::int64_t> partners;
  ReadPartnersThenAppend(*history_, action,
                         ActionConfidence(action, feedback_), config_,
                         partners);
  for (const std::int64_t partner : partners) {
    RefreshPair(action.video, static_cast<VideoId>(partner), action.time);
  }
  return partners.size();
}

double SimTableUpdater::RefreshPair(VideoId a, VideoId b, Timestamp now) {
  const double fused = PairSimilarity(*factors_, type_resolver_, config_, a, b);
  table_->Update(a, b, fused, now);
  return fused;
}

}  // namespace rtrec
