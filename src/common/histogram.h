#ifndef RTREC_COMMON_HISTOGRAM_H_
#define RTREC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rtrec {

/// A fixed-layout exponential-bucket histogram for latency/size samples,
/// in the spirit of RocksDB's HistogramImpl. Thread-safe. Values are
/// unit-less; callers conventionally record microseconds.
class Histogram {
 public:
  Histogram();

  /// Records one sample. Negative values clamp to zero.
  void Add(std::int64_t value);

  /// A consistent cut of the bucket array for native Prometheus
  /// histogram export: (inclusive upper bound, cumulative count) per
  /// non-empty-prefix bucket, plus total count and sum taken under the
  /// same lock. Buckets past the last non-zero one are omitted (the
  /// +Inf line renders from `count`).
  struct CumulativeCut {
    std::vector<std::pair<std::int64_t, std::uint64_t>> buckets;
    std::uint64_t count = 0;
    double sum = 0;
  };
  CumulativeCut CumulativeBuckets() const;

  /// Merges the samples of `other` into this histogram.
  void Merge(const Histogram& other);

  /// Drops all recorded samples.
  void Reset();

  std::uint64_t count() const;
  std::int64_t min() const;
  std::int64_t max() const;
  double Mean() const;

  /// Linear-interpolated percentile, p in [0, 100].
  double Percentile(double p) const;

  /// One-line summary: count/mean/p50/p95/p99/max.
  std::string ToString() const;

 private:
  static constexpr int kNumBuckets = 64;

  // Upper bound (inclusive) of bucket i; bucket 0 holds [0, 1].
  static std::int64_t BucketLimit(int i);
  static int BucketFor(std::int64_t value);

  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0;
  std::vector<std::uint64_t> buckets_;
};

/// RAII latency probe: records elapsed microseconds into a histogram when
/// destroyed.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* hist);
  ~ScopedLatencyTimer();

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* hist_;
  std::int64_t start_micros_;
};

}  // namespace rtrec

#endif  // RTREC_COMMON_HISTOGRAM_H_
