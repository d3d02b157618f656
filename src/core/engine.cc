#include "core/engine.h"

#include <cassert>
#include <utility>

namespace rtrec {

Status RecEngine::Options::Validate() const {
  RTREC_RETURN_IF_ERROR(model.Validate());
  RTREC_RETURN_IF_ERROR(similarity.Validate());
  RTREC_RETURN_IF_ERROR(recommend.Validate());
  if (history_per_user == 0) {
    return Status::InvalidArgument("history_per_user must be positive");
  }
  return Status::OK();
}

RecEngine::RecEngine(VideoTypeResolver type_resolver)
    : RecEngine(std::move(type_resolver), Options{}) {}

RecEngine::RecEngine(VideoTypeResolver type_resolver, Options options)
    : options_(std::move(options)) {
  assert(options_.Validate().ok());

  FactorStore::Options factor_options;
  factor_options.num_factors = options_.model.num_factors;
  factor_options.init_scale = options_.model.init_scale;
  factor_options.seed = options_.model.seed;
  factor_options.precision = options_.model.precision;
  factor_options.metrics = options_.metrics;
  factors_ = std::make_unique<FactorStore>(factor_options);

  HistoryStore::Options history_options;
  history_options.max_entries_per_user = options_.history_per_user;
  history_ = std::make_unique<HistoryStore>(history_options);

  SimTableStore::Options table_options;
  table_options.top_k = options_.similarity.top_k;
  table_options.xi_millis = options_.similarity.xi_millis;
  sim_table_ = std::make_unique<SimTableStore>(table_options);

  model_ = std::make_unique<OnlineMf>(factors_.get(), options_.model);
  model_->set_validation_hook(options_.validation_hook);
  updater_ = std::make_unique<SimTableUpdater>(
      factors_.get(), history_.get(), sim_table_.get(),
      std::move(type_resolver), options_.similarity,
      options_.model.feedback);
  recommender_ = std::make_unique<MfRecommender>(
      model_.get(), history_.get(), sim_table_.get(), options_.recommend);
}

void RecEngine::Observe(const UserAction& action) {
  model_->Update(action);
  // The updater also appends the action to the user's history.
  updater_->OnAction(action);
}

StatusOr<std::vector<ScoredVideo>> RecEngine::Recommend(
    const RecRequest& request) {
  return recommender_->Recommend(request);
}

}  // namespace rtrec
