#include "common/histogram.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace rtrec {

namespace {

std::int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) {
  min_ = std::numeric_limits<std::int64_t>::max();
  max_ = 0;
}

std::int64_t Histogram::BucketLimit(int i) {
  // Buckets grow roughly ~1.6x: limits 1, 2, 3, 5, 8, 13, ... capped at
  // int64 max for the last bucket.
  if (i >= kNumBuckets - 1) return std::numeric_limits<std::int64_t>::max();
  std::int64_t limit = 1;
  std::int64_t prev = 0;
  for (int b = 0; b < i; ++b) {
    std::int64_t next = limit + std::max<std::int64_t>(prev, 1);
    prev = limit;
    limit = next;
  }
  return limit;
}

int Histogram::BucketFor(std::int64_t value) {
  // Fibonacci-style growth matches BucketLimit; linear scan over 64 small
  // comparisons is cache-friendly and branch-predictable.
  std::int64_t limit = 1;
  std::int64_t prev = 0;
  for (int i = 0; i < kNumBuckets - 1; ++i) {
    if (value <= limit) return i;
    std::int64_t next = limit + std::max<std::int64_t>(prev, 1);
    prev = limit;
    limit = next;
  }
  return kNumBuckets - 1;
}

void Histogram::Add(std::int64_t value) {
  if (value < 0) value = 0;
  std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  sum_ += static_cast<double>(value);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  ++buckets_[BucketFor(value)];
}

Histogram::CumulativeCut Histogram::CumulativeBuckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  CumulativeCut cut;
  cut.count = count_;
  cut.sum = sum_;
  int last_nonzero = -1;
  for (int i = 0; i < kNumBuckets - 1; ++i) {
    if (buckets_[i] != 0) last_nonzero = i;
  }
  cut.buckets.reserve(static_cast<std::size_t>(last_nonzero + 1));
  std::uint64_t cumulative = 0;
  for (int i = 0; i <= last_nonzero; ++i) {
    cumulative += buckets_[i];
    cut.buckets.emplace_back(BucketLimit(i), cumulative);
  }
  return cut;
}

void Histogram::Merge(const Histogram& other) {
  // Lock ordering by address avoids deadlock on cross-merges.
  if (this == &other) return;
  const Histogram* first = this < &other ? this : &other;
  const Histogram* second = this < &other ? &other : this;
  std::lock_guard<std::mutex> l1(first->mu_);
  std::lock_guard<std::mutex> l2(second->mu_);
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<std::int64_t>::max();
  max_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::int64_t Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0 : min_;
}

std::int64_t Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::Mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  const double threshold = static_cast<double>(count_) * (p / 100.0);
  double cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += static_cast<double>(buckets_[i]);
    if (cumulative >= threshold) {
      // Interpolate within the bucket.
      const double left = cumulative - static_cast<double>(buckets_[i]);
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(BucketLimit(i - 1));
      double hi = static_cast<double>(BucketLimit(i));
      hi = std::min(hi, static_cast<double>(max_));
      const double within =
          buckets_[i] == 0
              ? 0.0
              : (threshold - left) / static_cast<double>(buckets_[i]);
      double value = lo + (hi - lo) * within;
      value = std::max(value, static_cast<double>(min_));
      return std::min(value, static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

std::string Histogram::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.2f p50=%.1f p95=%.1f p99=%.1f max=%lld",
                static_cast<unsigned long long>(count()), Mean(),
                Percentile(50), Percentile(95), Percentile(99),
                static_cast<long long>(max()));
  return buf;
}

ScopedLatencyTimer::ScopedLatencyTimer(Histogram* hist)
    : hist_(hist), start_micros_(NowMicros()) {}

ScopedLatencyTimer::~ScopedLatencyTimer() {
  if (hist_ != nullptr) hist_->Add(NowMicros() - start_micros_);
}

}  // namespace rtrec
