#ifndef RTREC_CORE_ENGINE_H_
#define RTREC_CORE_ENGINE_H_

#include <memory>

#include "common/metrics.h"
#include "core/model_config.h"
#include "core/online_mf.h"
#include "core/recommender.h"
#include "core/sim_table.h"
#include "kvstore/factor_store.h"
#include "kvstore/history_store.h"
#include "kvstore/sim_table_store.h"

namespace rtrec {

/// A complete single-process rMF engine: the factor store, user
/// histories, similar-video tables, the online MF model, the incremental
/// similarity updater, and the serving-path recommender — everything the
/// topology of Fig. 2 maintains, bundled behind one object for library
/// users, offline experiments, and per-demographic-group training.
///
/// Observe() is the real-time update path (model + tables + history);
/// Recommend() is the serving path of Fig. 1. Thread-safe: all state
/// lives in the sharded stores.
class RecEngine : public Recommender {
 public:
  struct Options {
    MfModelConfig model;
    SimilarityConfig similarity;
    RecommendConfig recommend;
    /// Per-user history retention.
    std::size_t history_per_user = 64;
    /// When set, the factor store registers `kvstore.multiget.*`. Not
    /// owned; must outlive the engine.
    MetricsRegistry* metrics = nullptr;
    /// When set, installed on the MF model: every training action is
    /// scored before its SGD step (progressive validation). Not owned;
    /// must outlive the engine.
    MfValidationHook* validation_hook = nullptr;

    Status Validate() const;
  };

  /// `type_resolver` maps videos to their fine-grained category; required
  /// by the type-similarity factor (Eq. 10).
  RecEngine(VideoTypeResolver type_resolver, Options options);

  /// Constructs with default options.
  explicit RecEngine(VideoTypeResolver type_resolver);

  /// Real-time update: Algorithm 1 on the MF model plus incremental
  /// similar-video table maintenance.
  void Observe(const UserAction& action) override;

  /// Fig. 1 request path.
  StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) override;

  std::string name() const override { return "rMF"; }

  OnlineMf& model() { return *model_; }
  FactorStore& factors() { return *factors_; }
  HistoryStore& history() { return *history_; }
  const HistoryStore& history() const { return *history_; }
  SimTableStore& sim_table() { return *sim_table_; }
  SimTableUpdater& updater() { return *updater_; }
  MfRecommender& recommender() { return *recommender_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  std::unique_ptr<FactorStore> factors_;
  std::unique_ptr<HistoryStore> history_;
  std::unique_ptr<SimTableStore> sim_table_;
  std::unique_ptr<OnlineMf> model_;
  std::unique_ptr<SimTableUpdater> updater_;
  std::unique_ptr<MfRecommender> recommender_;
};

}  // namespace rtrec

#endif  // RTREC_CORE_ENGINE_H_
