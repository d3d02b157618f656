#include "cluster/manifest.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace rtrec {

const ShardAddress* ClusterManifest::Find(ShardId shard) const {
  for (const ShardAddress& address : shards) {
    if (address.shard == shard) return &address;
  }
  return nullptr;
}

HashRing ClusterManifest::Ring(HashRing::Options options) const {
  HashRing ring(options);
  for (const ShardAddress& address : shards) ring.AddShard(address.shard);
  return ring;
}

StatusOr<ClusterManifest> ClusterManifest::Parse(std::string_view text) {
  ClusterManifest manifest;
  std::istringstream lines{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string tag;
    if (!(fields >> tag)) continue;  // Blank.
    if (tag != "shard") {
      return Status::InvalidArgument(StringPrintf(
          "manifest line %d: expected 'shard', got '%s'", line_no,
          tag.c_str()));
    }
    ShardAddress address;
    long shard = -1;
    long port = -1;
    if (!(fields >> shard >> address.host >> port) || shard < 0 || port <= 0 ||
        port > 65535 || address.host.empty()) {
      return Status::InvalidArgument(StringPrintf(
          "manifest line %d: want 'shard <id> <host> <port>'", line_no));
    }
    address.shard = static_cast<ShardId>(shard);
    address.port = static_cast<std::uint16_t>(port);
    std::string rest;
    if (fields >> rest) {
      return Status::InvalidArgument(StringPrintf(
          "manifest line %d: trailing field '%s'", line_no, rest.c_str()));
    }
    manifest.shards.push_back(std::move(address));
  }
  if (manifest.shards.empty()) {
    return Status::InvalidArgument("manifest lists no shards");
  }
  std::sort(manifest.shards.begin(), manifest.shards.end(),
            [](const ShardAddress& a, const ShardAddress& b) {
              return a.shard < b.shard;
            });
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    if (manifest.shards[i].shard != i) {
      return Status::InvalidArgument(StringPrintf(
          "manifest shard ids must be dense 0..N-1: missing or duplicate "
          "id near %u",
          static_cast<unsigned>(manifest.shards[i].shard)));
    }
  }
  return manifest;
}

StatusOr<ClusterManifest> ClusterManifest::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open cluster manifest '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return Parse(text.str());
}

}  // namespace rtrec
