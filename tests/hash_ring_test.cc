#include "cluster/hash_ring.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cluster/manifest.h"

namespace rtrec {
namespace {

/// Owner of every key in [0, n) (as user ids, the routing shape).
std::map<UserId, ShardId> OwnershipMap(const HashRing& ring, UserId n) {
  std::map<UserId, ShardId> owners;
  for (UserId user = 0; user < n; ++user) {
    auto owner = ring.OwnerOfUser(user);
    EXPECT_TRUE(owner.ok()) << owner.status().ToString();
    owners[user] = *owner;
  }
  return owners;
}

/// A ring over `shards`, built by AddShard.
HashRing RingOf(const std::vector<ShardId>& shards) {
  HashRing ring;
  for (const ShardId shard : shards) ring.AddShard(shard);
  return ring;
}

TEST(HashRingTest, EmptyRingRefusesToRoute) {
  HashRing ring;
  EXPECT_EQ(ring.num_shards(), 0u);
  auto owner = ring.Owner(42);
  EXPECT_FALSE(owner.ok());
  EXPECT_TRUE(owner.status().IsInvalidArgument());
  EXPECT_TRUE(ring.PreferenceOrder(42).empty());
}

TEST(HashRingTest, RoutingIsDeterministic) {
  // Same membership, different construction paths and insertion orders:
  // every router and every server must derive the identical mapping.
  HashRing convenience(4);
  HashRing forward;
  for (ShardId shard = 0; shard < 4; ++shard) forward.AddShard(shard);
  HashRing backward;
  for (int shard = 3; shard >= 0; --shard) {
    backward.AddShard(static_cast<ShardId>(shard));
  }
  for (UserId user = 0; user < 5'000; ++user) {
    const ShardId owner = *convenience.OwnerOfUser(user);
    EXPECT_EQ(owner, *forward.OwnerOfUser(user));
    EXPECT_EQ(owner, *backward.OwnerOfUser(user));
  }
}

TEST(HashRingTest, BalancesKeysAcrossFourShards) {
  HashRing ring(4);
  std::map<ShardId, int> counts;
  const int kKeys = 40'000;
  for (UserId user = 0; user < kKeys; ++user) {
    ++counts[*ring.OwnerOfUser(user)];
  }
  ASSERT_EQ(counts.size(), 4u) << "some shard owns no keys";
  // Perfect balance is 25% each; with 64 vnodes/shard the spread stays
  // well inside [15%, 35%].
  for (const auto& [shard, count] : counts) {
    const double fraction = static_cast<double>(count) / kKeys;
    EXPECT_GT(fraction, 0.15) << "shard " << shard << " underloaded";
    EXPECT_LT(fraction, 0.35) << "shard " << shard << " overloaded";
  }
}

TEST(HashRingTest, LosingAShardMovesOnlyItsKeys) {
  const auto before = OwnershipMap(RingOf({0, 1, 2, 3}), 10'000);
  const auto during = OwnershipMap(RingOf({0, 1, 3}), 10'000);
  std::size_t moved = 0;
  for (const auto& [user, owner] : before) {
    if (owner == 2) {
      EXPECT_NE(during.at(user), 2u);
      ++moved;
    } else {
      // Minimal movement: a key not owned by the dead shard stays put.
      EXPECT_EQ(during.at(user), owner) << "user " << user;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, AddingTheMissingShardRestoresTheFullMapping) {
  HashRing ring = RingOf({0, 1, 3});
  ring.AddShard(2);
  EXPECT_EQ(OwnershipMap(ring, 10'000),
            OwnershipMap(RingOf({0, 1, 2, 3}), 10'000));
}

TEST(HashRingTest, AddIsIdempotent) {
  HashRing ring(3);
  const auto before = OwnershipMap(ring, 1'000);
  ring.AddShard(1);  // Already present.
  EXPECT_EQ(ring.num_shards(), 3u);
  EXPECT_EQ(OwnershipMap(ring, 1'000), before);
}

TEST(HashRingTest, PreferenceOrderStartsAtOwnerAndCoversAllShards) {
  HashRing ring(4);
  for (UserId user = 0; user < 500; ++user) {
    const std::uint64_t key = HashRing::KeyForUser(user);
    const std::vector<ShardId> order = ring.PreferenceOrder(key);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], *ring.Owner(key));
    std::vector<ShardId> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<ShardId>{0, 1, 2, 3}))
        << "preference order must be a permutation of the membership";
  }
}

TEST(HashRingTest, FailoverTargetAgreesAcrossRouters) {
  // Two independently built rings must agree on who inherits a dead
  // shard's keys — that is what makes failover coherent cluster-wide.
  const HashRing a(4);
  const HashRing b = RingOf({0, 2, 3});
  for (UserId user = 0; user < 2'000; ++user) {
    const std::uint64_t key = HashRing::KeyForUser(user);
    if (*a.Owner(key) != 1) continue;
    const std::vector<ShardId> order = a.PreferenceOrder(key);
    // The next preference on the full ring is the owner on the ring
    // without the dead shard.
    EXPECT_EQ(order[1], *b.Owner(key));
  }
}

TEST(HashRingTest, MembershipIsSortedAndQueryable) {
  HashRing ring;
  ring.AddShard(5);
  ring.AddShard(1);
  ring.AddShard(3);
  EXPECT_EQ(ring.shards(), (std::vector<ShardId>{1, 3, 5}));
  EXPECT_TRUE(ring.HasShard(3));
  EXPECT_FALSE(ring.HasShard(2));
}

// --- Manifest --------------------------------------------------------------

TEST(ClusterManifestTest, ParsesWellFormedText) {
  auto manifest = ClusterManifest::Parse(
      "# comment\n"
      "\n"
      "shard 1 127.0.0.1 7472\n"
      "shard 0 10.0.0.5 7471\n");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->num_shards(), 2u);
  // Sorted by shard id regardless of line order.
  EXPECT_EQ(manifest->shards[0].shard, 0u);
  EXPECT_EQ(manifest->shards[0].host, "10.0.0.5");
  EXPECT_EQ(manifest->shards[0].port, 7471);
  EXPECT_EQ(manifest->shards[1].shard, 1u);
  const ShardAddress* found = manifest->Find(1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->port, 7472);
  EXPECT_EQ(manifest->Find(2), nullptr);
}

TEST(ClusterManifestTest, RejectsMalformedInput) {
  // Empty / no shard lines.
  EXPECT_FALSE(ClusterManifest::Parse("").ok());
  EXPECT_FALSE(ClusterManifest::Parse("# only a comment\n").ok());
  // Duplicate id.
  EXPECT_FALSE(ClusterManifest::Parse(
                   "shard 0 127.0.0.1 7471\nshard 0 127.0.0.1 7472\n")
                   .ok());
  // Non-dense ids (0..N-1 required).
  EXPECT_FALSE(ClusterManifest::Parse(
                   "shard 0 127.0.0.1 7471\nshard 2 127.0.0.1 7473\n")
                   .ok());
  // Structural junk.
  EXPECT_FALSE(ClusterManifest::Parse("shard zero 127.0.0.1 7471\n").ok());
  EXPECT_FALSE(ClusterManifest::Parse("shard 0 127.0.0.1\n").ok());
  EXPECT_FALSE(ClusterManifest::Parse("shard 0 127.0.0.1 notaport\n").ok());
  EXPECT_FALSE(
      ClusterManifest::Parse("shard 0 127.0.0.1 7471 extra\n").ok());
  EXPECT_FALSE(ClusterManifest::Parse("shard 0 127.0.0.1 99999\n").ok());
}

TEST(ClusterManifestTest, LoadReportsMissingFileAsNotFound) {
  auto manifest = ClusterManifest::Load("/nonexistent/rtrec-manifest.txt");
  EXPECT_FALSE(manifest.ok());
  EXPECT_TRUE(manifest.status().IsNotFound());
}

TEST(ClusterManifestTest, RingMatchesMembership) {
  auto manifest = ClusterManifest::Parse(
      "shard 0 127.0.0.1 7471\n"
      "shard 1 127.0.0.1 7472\n"
      "shard 2 127.0.0.1 7473\n");
  ASSERT_TRUE(manifest.ok());
  const HashRing ring = manifest->Ring();
  EXPECT_EQ(ring.shards(), (std::vector<ShardId>{0, 1, 2}));
  // And it routes identically to a hand-built ring over the same ids —
  // the server-side and router-side rings are interchangeable.
  const HashRing reference(3);
  for (UserId user = 0; user < 1'000; ++user) {
    EXPECT_EQ(*ring.OwnerOfUser(user), *reference.OwnerOfUser(user));
  }
}

}  // namespace
}  // namespace rtrec
