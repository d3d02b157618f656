#ifndef RTREC_DEMOGRAPHIC_GROUP_CHECKPOINT_H_
#define RTREC_DEMOGRAPHIC_GROUP_CHECKPOINT_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/engine.h"

namespace rtrec {

/// The snapshot layout of the serving models: one file per group's
/// engine plus a manifest, so a restarted process can rebuild every
/// group model from disk. The demographic trainer writes it.
///
/// Layout under `directory`:
///   manifest.txt       — one group id per line
///   group_<id>.ckpt    — the group's stores (kvstore/checkpoint format)
/// The global group's file is "group_global.ckpt".

/// Snapshots each (group, engine) into `directory` (created if missing;
/// existing snapshot files are overwritten). Data files go first and the
/// manifest last, atomically: a failure anywhere leaves the previous
/// manifest, and the snapshot it names, intact.
Status SaveGroupCheckpoint(
    const std::string& directory,
    const std::vector<std::pair<GroupId, RecEngine*>>& engines);

/// Restores every group the manifest lists into the engine
/// `engine_for(group)` returns. The engines' dimensionality must match
/// the snapshots'. NotFound when `directory` has no manifest.
Status LoadGroupCheckpoint(
    const std::string& directory,
    const std::function<RecEngine&(GroupId)>& engine_for);

}  // namespace rtrec

#endif  // RTREC_DEMOGRAPHIC_GROUP_CHECKPOINT_H_
