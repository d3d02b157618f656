#ifndef RTREC_DEMOGRAPHIC_DEMOGRAPHIC_TRAINER_H_
#define RTREC_DEMOGRAPHIC_DEMOGRAPHIC_TRAINER_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "demographic/grouper.h"

namespace rtrec {

/// Demographic training (Section 5.2.2): one complete rMF engine per
/// demographic group, so each group gets its own video vectors y_i and
/// its own similar-video tables. The per-group user-video matrices are
/// denser than the global one, and the per-group models capture the
/// variation of rating patterns between groups — both effects behind the
/// 10–20% improvement of Figure 3.
///
/// A global engine is trained on all traffic: it serves users whose
/// group has no model yet and is the Figure 3 comparison baseline.
class DemographicTrainer : public Recommender {
 public:
  /// `grouper` and `type_resolver` are shared, not owned. Every engine
  /// (group and global) is built from `engine`; only the global engine
  /// keeps its validation hook, so the hook sees each action once.
  DemographicTrainer(const DemographicGrouper* grouper,
                     VideoTypeResolver type_resolver,
                     RecEngine::Options engine);

  /// Routes the action to the user's group engine (creating it on first
  /// traffic) and to the global engine.
  void Observe(const UserAction& action) override;

  /// Serves from the user's group engine; falls back to the global
  /// engine when the group has no model or returns nothing.
  StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) override;

  std::string name() const override { return "rMF(groups)"; }

  /// The engine of `group`, or null if that group has seen no traffic.
  /// kGlobalGroup returns the global engine (never null).
  RecEngine* GetEngine(GroupId group);
  const RecEngine* GetEngine(GroupId group) const;

  /// Groups that currently have engines (excluding kGlobalGroup).
  std::vector<GroupId> ActiveGroups() const;

  /// Snapshots every engine (group + global) into `directory` using the
  /// group-checkpoint layout (demographic/group_checkpoint.h).
  Status SaveSnapshot(const std::string& directory) const;

  /// Restores engines from a SaveSnapshot directory, materializing group
  /// engines as needed.
  Status LoadSnapshot(const std::string& directory);

 private:
  RecEngine& EngineFor(GroupId group);

  const DemographicGrouper* grouper_;
  VideoTypeResolver type_resolver_;
  RecEngine::Options group_options_;  // `engine` without the hook.

  mutable std::mutex mu_;  // Guards the engine map (not the engines).
  std::unordered_map<GroupId, std::unique_ptr<RecEngine>> engines_;
  std::unique_ptr<RecEngine> global_;
};

}  // namespace rtrec

#endif  // RTREC_DEMOGRAPHIC_DEMOGRAPHIC_TRAINER_H_
