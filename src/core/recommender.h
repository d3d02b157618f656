#ifndef RTREC_CORE_RECOMMENDER_H_
#define RTREC_CORE_RECOMMENDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/action.h"
#include "core/model_config.h"
#include "core/online_mf.h"
#include "core/sim_table.h"
#include "kvstore/history_store.h"
#include "kvstore/sim_table_store.h"

namespace rtrec {

/// One recommendation result.
struct ScoredVideo {
  VideoId video = 0;
  double score = 0.0;

  friend bool operator==(const ScoredVideo&, const ScoredVideo&) = default;
};

/// One recommendation request. Two production scenarios (Fig. 6):
///  - "related videos": `seed_videos` holds the video being watched;
///  - "guess you like": `seed_videos` is empty and seeds come from the
///    user's history.
struct RecRequest {
  UserId user = 0;
  std::vector<VideoId> seed_videos;
  /// 0 means "use the recommender's configured top-N".
  std::size_t top_n = 0;
  /// Request time; drives the similarity decay (Eq. 11).
  Timestamp now = 0;
};

/// Common interface of the production model (rMF) and the comparative
/// methods of Section 6.2 (Hot, AR, SimHash). Implementations must be
/// thread-safe for concurrent Recommend calls.
class Recommender {
 public:
  virtual ~Recommender() = default;

  /// Returns up to top-N videos, best first.
  virtual StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) = 0;

  /// Feeds one observed user action to the model. Real-time models fold
  /// it in immediately; batch baselines buffer it until RetrainBatch.
  virtual void Observe(const UserAction& action) { (void)action; }

  /// Batch (re)training hook, called once per simulated day in the A/B
  /// harness. No-op for online models.
  virtual void RetrainBatch(Timestamp now) { (void)now; }

  /// Display name used in experiment tables ("rMF", "Hot", ...).
  virtual std::string name() const = 0;
};

/// The paper's real-time MF recommender (Fig. 1): seed videos → candidate
/// expansion through the similar-video tables → preference ranking with
/// the online MF model. Thread-safe given its thread-safe dependencies.
class MfRecommender : public Recommender {
 public:
  /// All dependencies are shared, not owned. `updater` may be null if the
  /// caller maintains the similarity tables elsewhere (e.g. the topology);
  /// then Observe only updates the MF model and history.
  MfRecommender(OnlineMf* model, HistoryStore* history, SimTableStore* table,
                SimTableUpdater* updater, RecommendConfig config);

  StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) override;

  /// Folds the action into the MF model and the similarity tables — the
  /// full real-time update path.
  void Observe(const UserAction& action) override;

  std::string name() const override { return "rMF"; }

  const RecommendConfig& config() const { return config_; }

 private:
  OnlineMf* model_;
  HistoryStore* history_;
  SimTableStore* table_;
  SimTableUpdater* updater_;
  RecommendConfig config_;
};

}  // namespace rtrec

#endif  // RTREC_CORE_RECOMMENDER_H_
