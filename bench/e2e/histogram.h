// Log-linear latency histogram for the end-to-end bench.
//
// Values are nanoseconds. Each power of two is split into 64 linear
// sub-buckets (the log2 bucketing of analysis/interval_estimator, refined),
// so a bucket spans at most 1/64 of its value. Quantiles interpolate
// linearly inside the bucket that holds the requested rank, which keeps a
// reported p50/p99 continuous instead of snapping to bucket edges. Fixed
// size: memory does not grow with the number of samples, so a faster run
// does not show up as a larger peak RSS.

#ifndef LRUK_BENCH_E2E_HISTOGRAM_H_
#define LRUK_BENCH_E2E_HISTOGRAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lruk::e2e {

class Histogram {
 public:
  void Add(uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  // The q-quantile (0 <= q <= 1) in nanoseconds; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    double target = q * static_cast<double>(count_);
    double cumulative = 0.0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      double in_bucket = static_cast<double>(buckets_[i]);
      if (cumulative + in_bucket >= target) {
        double lo = 0.0;
        double width = 0.0;
        Bounds(i, &lo, &width);
        return lo + width * (target - cumulative) / in_bucket;
      }
      cumulative += in_bucket;
    }
    double lo = 0.0;
    double width = 0.0;
    Bounds(kBuckets - 1, &lo, &width);
    return lo + width;
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // Values below kSub get one exact bucket each; every octave above gets kSub.
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int msb = 63 - std::countl_zero(v);
    int shift = msb - kSubBits;
    uint64_t sub = (v >> shift) - kSub;
    return static_cast<size_t>((shift + 1) * kSub + sub);
  }

  static void Bounds(size_t i, double* lo, double* width) {
    if (i < kSub) {
      *lo = static_cast<double>(i);
      *width = 1.0;
      return;
    }
    int shift = static_cast<int>(i / kSub) - 1;
    uint64_t sub = i % kSub;
    *lo = static_cast<double>((kSub + sub) << shift);
    *width = static_cast<double>(uint64_t{1} << shift);
  }

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

}  // namespace lruk::e2e

#endif  // LRUK_BENCH_E2E_HISTOGRAM_H_
