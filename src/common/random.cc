#include "common/random.h"

#include <cassert>
#include <cmath>

#include "common/types.h"

namespace rtrec {

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Expand the seed through SplitMix64 so near-equal seeds diverge.
  std::uint64_t s = seed;
  for (auto& word : state_) {
    s += 0x9E3779B97F4A7C15ull;
    word = MixHash64(s);
  }
}

std::uint64_t Rng::NextUint64() {
  // xoshiro256** by Blackman & Vigna.
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::NextUint64(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    std::uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::NextInt64(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // Full 64-bit range.
    return static_cast<std::int64_t>(NextUint64());
  }
  return lo + static_cast<std::int64_t>(NextUint64(span));
}

double Rng::NextDouble() {
  // 53 top bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller transform; cache the second deviate.
  double u1 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

ZipfDistribution::ZipfDistribution(std::size_t n, double s) : s_(s) {
  assert(n >= 1);
  assert(s >= 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // Guard against rounding drift.
}

std::size_t ZipfDistribution::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // First index with cdf >= u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ZipfDistribution::Pmf(std::size_t rank) const {
  assert(rank < cdf_.size());
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace rtrec
