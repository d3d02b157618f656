#include "cluster/hash_ring.h"

#include <algorithm>

namespace rtrec {

HashRing::HashRing() : HashRing(Options{}) {}

HashRing::HashRing(Options options) : options_(options) {
  if (options_.vnodes_per_shard == 0) options_.vnodes_per_shard = 1;
}

HashRing::HashRing(std::size_t num_shards) : HashRing(num_shards, Options{}) {}

HashRing::HashRing(std::size_t num_shards, Options options)
    : HashRing(options) {
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    AddShard(static_cast<ShardId>(shard));
  }
}

std::uint64_t HashRing::Mix(std::uint64_t x) {
  // splitmix64 finalizer (Steele et al.): cheap, well-distributed, and
  // stable across platforms — the mapping must agree between processes.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void HashRing::AddShard(ShardId shard) {
  if (HasShard(shard)) return;
  shards_.insert(std::upper_bound(shards_.begin(), shards_.end(), shard),
                 shard);
  points_.reserve(points_.size() + options_.vnodes_per_shard);
  for (std::size_t replica = 0; replica < options_.vnodes_per_shard;
       ++replica) {
    // Vnode point = hash of (shard, replica). The two-step mix keeps
    // shard i / replica j distinct from shard j / replica i.
    const std::uint64_t hash =
        Mix(Mix(static_cast<std::uint64_t>(shard) + 1) ^
            (static_cast<std::uint64_t>(replica) * 0xA24BAED4963EE407ull +
             0x9FB21C651E98DF25ull));
    points_.push_back(Point{hash, shard});
  }
  std::sort(points_.begin(), points_.end());
}

bool HashRing::HasShard(ShardId shard) const {
  return std::binary_search(shards_.begin(), shards_.end(), shard);
}

std::size_t HashRing::Successor(std::uint64_t key) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const Point& p, std::uint64_t k) { return p.hash < k; });
  if (it == points_.end()) it = points_.begin();  // Wrap.
  return static_cast<std::size_t>(it - points_.begin());
}

StatusOr<ShardId> HashRing::Owner(std::uint64_t key) const {
  if (points_.empty()) {
    return Status::InvalidArgument("hash ring has no shards");
  }
  return points_[Successor(key)].shard;
}

std::vector<ShardId> HashRing::PreferenceOrder(std::uint64_t key) const {
  std::vector<ShardId> order;
  if (points_.empty()) return order;
  order.reserve(shards_.size());
  const std::size_t start = Successor(key);
  for (std::size_t i = 0; i < points_.size() && order.size() < shards_.size();
       ++i) {
    const ShardId shard = points_[(start + i) % points_.size()].shard;
    if (std::find(order.begin(), order.end(), shard) == order.end()) {
      order.push_back(shard);
    }
  }
  return order;
}

}  // namespace rtrec
