#ifndef RTREC_CORE_SIM_TABLE_H_
#define RTREC_CORE_SIM_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/action.h"
#include "core/model_config.h"
#include "core/similarity.h"
#include "kvstore/factor_store.h"
#include "kvstore/history_store.h"
#include "kvstore/sim_table_store.h"

namespace rtrec {

/// The co-watch partners of an action of `confidence` (Section 4.2), and
/// the history write that goes with them. An action at or above
/// `config.min_confidence` pairs with the user's most recent videos, read
/// *before* the action is appended, so its own video never pairs with
/// itself through the entry just written. Every action with positive
/// confidence is then appended, whether or not it pairs; impressions are
/// not history. Shared by SimTableUpdater::OnAction and the UserHistory
/// bolt, so the engine and the topology keep the same history. The
/// partners are appended to `partners`, the id vector the UserHistory
/// bolt ships, under a single history lock.
void ReadPartnersThenAppend(HistoryStore& history, const UserAction& action,
                            double confidence, const SimilarityConfig& config,
                            std::vector<std::int64_t>& partners);

/// Fused similarity of a video pair: s1 = y_aᵀy_b on the *current* MF
/// vectors (Eq. 9, so the tables track the model), s2 from the
/// fine-grained types (Eq. 10), blended with β (Eq. 12). Shared by
/// SimTableUpdater::RefreshPair and the ItemPairSim bolt.
double PairSimilarity(FactorStore& factors, const VideoTypeResolver& types,
                      const SimilarityConfig& config, VideoId a, VideoId b);

/// Incremental maintenance of the similar-video tables (Section 4.2) —
/// the logic of the UserHistory → GetItemPairs → ItemPairSim →
/// ResultStorage bolts (Fig. 2), callable directly for single-process
/// training. On each action it takes the co-watch partners
/// (ReadPartnersThenAppend), computes each pair's PairSimilarity and
/// writes it into the SimTableStore stamped with the action time
/// (restarting its decay clock, Eq. 11).
class SimTableUpdater {
 public:
  /// All dependencies are shared, not owned, and must outlive the updater.
  SimTableUpdater(FactorStore* factors, HistoryStore* history,
                  SimTableStore* table, VideoTypeResolver type_resolver,
                  SimilarityConfig config, FeedbackConfig feedback = {});

  SimTableUpdater(const SimTableUpdater&) = delete;
  SimTableUpdater& operator=(const SimTableUpdater&) = delete;

  /// Processes one action: updates the user's history and, when the
  /// action's confidence clears the threshold, refreshes the similarity
  /// of (action.video × recent history) pairs. Returns the number of
  /// pairs refreshed.
  std::size_t OnAction(const UserAction& action);

  /// Recomputes and stores the similarity of one explicit pair at `now`:
  /// OnAction's step for each partner. Returns the fused similarity.
  double RefreshPair(VideoId a, VideoId b, Timestamp now);

  const SimilarityConfig& config() const { return config_; }

 private:
  FactorStore* factors_;
  HistoryStore* history_;
  SimTableStore* table_;
  VideoTypeResolver type_resolver_;
  SimilarityConfig config_;
  FeedbackConfig feedback_;
};

}  // namespace rtrec

#endif  // RTREC_CORE_SIM_TABLE_H_
