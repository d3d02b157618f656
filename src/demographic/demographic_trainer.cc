#include "demographic/demographic_trainer.h"

#include <cassert>

#include "demographic/group_checkpoint.h"

namespace rtrec {

DemographicTrainer::DemographicTrainer(const DemographicGrouper* grouper,
                                       VideoTypeResolver type_resolver,
                                       RecEngine::Options engine)
    : grouper_(grouper),
      type_resolver_(std::move(type_resolver)),
      group_options_(engine) {
  assert(grouper_ != nullptr);
  assert(type_resolver_ != nullptr);
  global_ = std::make_unique<RecEngine>(type_resolver_, std::move(engine));
  // Observe() feeds every action to both its group engine and the global
  // one; a validation hook must see each action once, so only the global
  // engine keeps it.
  group_options_.validation_hook = nullptr;
}

RecEngine& DemographicTrainer::EngineFor(GroupId group) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = engines_[group];
  if (!slot) {
    slot = std::make_unique<RecEngine>(type_resolver_, group_options_);
  }
  return *slot;
}

void DemographicTrainer::Observe(const UserAction& action) {
  const GroupId group = grouper_->GroupOf(action.user);
  if (group != kGlobalGroup) {
    EngineFor(group).Observe(action);
  }
  global_->Observe(action);
}

StatusOr<std::vector<ScoredVideo>> DemographicTrainer::Recommend(
    const RecRequest& request) {
  const GroupId group = grouper_->GroupOf(request.user);
  RecEngine* engine = group == kGlobalGroup ? nullptr : GetEngine(group);
  if (engine != nullptr) {
    StatusOr<std::vector<ScoredVideo>> result = engine->Recommend(request);
    if (!result.ok()) return result;
    if (!result->empty()) return result;
  }
  return global_->Recommend(request);
}

RecEngine* DemographicTrainer::GetEngine(GroupId group) {
  if (group == kGlobalGroup) return global_.get();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(group);
  return it == engines_.end() ? nullptr : it->second.get();
}

const RecEngine* DemographicTrainer::GetEngine(GroupId group) const {
  if (group == kGlobalGroup) return global_.get();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(group);
  return it == engines_.end() ? nullptr : it->second.get();
}

Status DemographicTrainer::SaveSnapshot(const std::string& directory) const {
  std::vector<std::pair<GroupId, RecEngine*>> engines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [group, engine] : engines_) {
      engines.emplace_back(group, engine.get());
    }
  }
  engines.emplace_back(kGlobalGroup, global_.get());
  return SaveGroupCheckpoint(directory, engines);
}

Status DemographicTrainer::LoadSnapshot(const std::string& directory) {
  return LoadGroupCheckpoint(
      directory, [this](GroupId group) -> RecEngine& {
        return group == kGlobalGroup ? *global_ : EngineFor(group);
      });
}

std::vector<GroupId> DemographicTrainer::ActiveGroups() const {
  std::vector<GroupId> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(engines_.size());
  for (const auto& [group, engine] : engines_) out.push_back(group);
  return out;
}

}  // namespace rtrec
