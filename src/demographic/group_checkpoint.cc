#include "demographic/group_checkpoint.h"

#include <filesystem>
#include <fstream>

#include "common/string_util.h"
#include "kvstore/checkpoint.h"

namespace rtrec {

namespace {

std::string GroupFilePath(const std::string& directory, GroupId group) {
  if (group == kGlobalGroup) return directory + "/group_global.ckpt";
  return directory + "/group_" + std::to_string(group) + ".ckpt";
}

/// Restores only `group`'s file into `engine`. NotFound when the file is
/// missing.
Status LoadGroupFile(const std::string& directory, GroupId group,
                     RecEngine& engine) {
  return LoadCheckpoint(GroupFilePath(directory, group), &engine.factors(),
                        &engine.sim_table(), &engine.history());
}

}  // namespace

Status SaveGroupCheckpoint(
    const std::string& directory,
    const std::vector<std::pair<GroupId, RecEngine*>>& engines) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::Unavailable("cannot create '" + directory +
                               "': " + ec.message());
  }
  std::string manifest;
  for (const auto& [group, engine] : engines) {
    RTREC_RETURN_IF_ERROR(SaveCheckpoint(GroupFilePath(directory, group),
                                         &engine->factors(),
                                         &engine->sim_table(),
                                         &engine->history()));
    manifest += std::to_string(group) + "\n";
  }
  return WriteFileAtomic(directory + "/manifest.txt", manifest);
}

Status LoadGroupCheckpoint(
    const std::string& directory,
    const std::function<RecEngine&(GroupId)>& engine_for) {
  std::ifstream manifest(directory + "/manifest.txt");
  if (!manifest.is_open()) {
    return Status::NotFound("no manifest in '" + directory + "'");
  }
  std::string line;
  while (std::getline(manifest, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    StatusOr<std::uint64_t> group_id = ParseUint64(trimmed);
    if (!group_id.ok()) {
      return Status::Corruption("bad manifest line '" + line + "'");
    }
    const GroupId group = static_cast<GroupId>(*group_id);
    RTREC_RETURN_IF_ERROR(
        LoadGroupFile(directory, group, engine_for(group)));
  }
  return Status::OK();
}

}  // namespace rtrec
