#ifndef RTREC_COMMON_RANDOM_H_
#define RTREC_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace rtrec {

/// A small, fast, deterministic PRNG (xoshiro256**). Not cryptographic.
/// Every stochastic component in the library takes an explicit seed so
/// experiments are exactly reproducible.
class Rng {
 public:
  /// Seeds the generator; two Rng instances with equal seeds produce
  /// identical streams.
  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9Bull);

  /// Next raw 64 random bits.
  std::uint64_t NextUint64();

  /// Uniform in [0, n). Requires n > 0.
  std::uint64_t NextUint64(std::uint64_t n);

  /// Uniform in [lo, hi]. Requires lo <= hi.
  std::int64_t NextInt64(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Bernoulli draw.
  bool NextBool(double p_true);

  /// Fisher-Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextUint64(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
/// Used to model video popularity skew: a few head videos absorb most
/// plays, exactly the regime the paper's candidate-selection design
/// assumes. Sampling is O(log n) via binary search over the cumulative
/// distribution (built once, O(n)).
class ZipfDistribution {
 public:
  /// Requires n >= 1 and exponent s >= 0 (s == 0 degenerates to uniform).
  ZipfDistribution(std::size_t n, double s);

  /// Draws a rank in [0, n).
  std::size_t Sample(Rng& rng) const;

  /// Probability mass of `rank`.
  double Pmf(std::size_t rank) const;

  std::size_t n() const { return cdf_.size(); }
  double exponent() const { return s_; }

 private:
  double s_;
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i); cdf_.back() == 1.
};

}  // namespace rtrec

#endif  // RTREC_COMMON_RANDOM_H_
