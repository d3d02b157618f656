#ifndef RTREC_CLUSTER_MANIFEST_H_
#define RTREC_CLUSTER_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "cluster/hash_ring.h"

namespace rtrec {

/// One shard process's address inside the cluster.
struct ShardAddress {
  ShardId shard = 0;
  std::string host;
  std::uint16_t port = 0;
};

/// The cluster manifest: the authoritative list of shard processes, one
/// per key slice. Every router (ClusterClient) and every server (`serve
/// --cluster-manifest`) reads the same file, so all of them derive the
/// same consistent-hash ring and the same ownership.
///
/// Text format, one entry per line, '#' comments and blank lines
/// ignored:
///
///   # rtrec cluster manifest
///   shard 0 127.0.0.1 7471
///   shard 1 127.0.0.1 7472
///
/// Shard ids must be dense 0..N-1 (any line order); each id appears
/// exactly once. Host:port pairs need not be distinct hosts — a
/// one-machine cluster is the normal dev/bench shape.
struct ClusterManifest {
  std::vector<ShardAddress> shards;  // Sorted by shard id after Parse.

  std::size_t num_shards() const { return shards.size(); }

  /// The address of `shard`; nullptr if out of range.
  const ShardAddress* Find(ShardId shard) const;

  /// A ring over this manifest's shard ids.
  HashRing Ring(HashRing::Options options = {}) const;

  /// Parses manifest text. InvalidArgument on malformed lines, duplicate
  /// or non-dense shard ids, bad ports, or an empty shard list.
  static StatusOr<ClusterManifest> Parse(std::string_view text);

  /// Loads and parses a manifest file. NotFound if unreadable.
  static StatusOr<ClusterManifest> Load(const std::string& path);
};

}  // namespace rtrec

#endif  // RTREC_CLUSTER_MANIFEST_H_
