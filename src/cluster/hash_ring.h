#ifndef RTREC_CLUSTER_HASH_RING_H_
#define RTREC_CLUSTER_HASH_RING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace rtrec {

/// Shard identifier inside a cluster manifest: dense, 0-based.
using ShardId = std::uint32_t;

/// Consistent-hash ring mapping request keys (user ids) to shard
/// processes — the routing layer of the multi-process deployment.
///
/// Each shard contributes `vnodes_per_shard` virtual points to the ring;
/// a key is owned by the first point at or clockwise after its hash. The
/// usual consistent-hashing properties follow:
///
///  - deterministic: the mapping depends only on the member shard ids
///    and the vnode count, never on insertion order or process identity,
///    so every router and every server derives the same ownership;
///  - balanced: with enough vnodes, each of N shards owns ~1/N of the
///    key space (hash_ring_test pins the spread);
///  - minimal movement: a ring without one shard differs from the full
///    ring only on the keys that shard owned (they go to the next points
///    clockwise) — which is what makes shard restarts and rebalances
///    cheap.
///
/// PreferenceOrder() is the failover policy: the distinct shards met
/// walking clockwise from the key's point. The first entry is the owner;
/// a router that finds it dead tries the subsequent entries, so every
/// router agrees on which replica takes over a dead shard's slice.
///
/// Not thread-safe for concurrent mutation; membership is fixed at
/// construction in the router (liveness is the circuit breakers' job,
/// not the ring's), so shared read-only use is fine.
class HashRing {
 public:
  struct Options {
    /// Virtual points per shard. More points = smoother balance at the
    /// cost of a larger (still tiny) sorted array.
    std::size_t vnodes_per_shard = 64;
  };

  HashRing();
  explicit HashRing(Options options);

  /// Convenience: a ring over shards 0..num_shards-1.
  explicit HashRing(std::size_t num_shards);
  HashRing(std::size_t num_shards, Options options);

  /// Adds `shard`'s vnodes. Idempotent.
  void AddShard(ShardId shard);

  bool HasShard(ShardId shard) const;
  std::size_t num_shards() const { return shards_.size(); }
  /// Member shard ids, ascending.
  const std::vector<ShardId>& shards() const { return shards_; }

  /// The shard owning `key`. InvalidArgument on an empty ring.
  StatusOr<ShardId> Owner(std::uint64_t key) const;

  /// Owner of a user-keyed request (Recommend/Observe/RegisterProfile
  /// all route by user, which is what keeps per-key single-writer true
  /// across processes).
  StatusOr<ShardId> OwnerOfUser(UserId user) const {
    return Owner(KeyForUser(user));
  }

  /// Every member shard in failover order: the owner first, then the
  /// shards met walking clockwise.
  std::vector<ShardId> PreferenceOrder(std::uint64_t key) const;

  /// The ring key for a user id (a mixed hash, so adjacent user ids
  /// spread across shards instead of clustering).
  static std::uint64_t KeyForUser(UserId user) { return Mix(user); }

  /// splitmix64 finalizer: the point hash for both keys and vnodes.
  static std::uint64_t Mix(std::uint64_t x);

 private:
  struct Point {
    std::uint64_t hash;
    ShardId shard;
    bool operator<(const Point& other) const {
      // Tie-break on shard id so the ring order is a total order even in
      // the (astronomically unlikely) event of a hash collision.
      return hash != other.hash ? hash < other.hash : shard < other.shard;
    }
  };

  /// Index into points_ of the first point at or after `key` (wrapping).
  std::size_t Successor(std::uint64_t key) const;

  Options options_;
  std::vector<ShardId> shards_;  // Ascending.
  std::vector<Point> points_;    // Sorted.
};

}  // namespace rtrec

#endif  // RTREC_CLUSTER_HASH_RING_H_
