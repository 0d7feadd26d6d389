// Log-bucketed, lock-free latency/size histogram.
//
// Fixed memory (kBuckets atomic counters plus a sum), relaxed-atomic
// recording so the hot paths of every runtime — including the threaded one —
// can record without locks, and mergeable/copyable exactly like Counter so a
// Histogram can live inside Metrics and ride through merge()/report()/
// snapshot copies unchanged.
//
// Bucketing: bucket b holds values whose bit width is b, i.e. the range
// [2^(b-1), 2^b - 1]; bucket 0 holds exactly 0 and the last bucket absorbs
// everything at or above 2^(kBuckets-2). Upper bounds therefore form the
// series 0, 1, 3, 7, 15, ... — one comparison-free `std::bit_width` per
// record. Quantiles interpolate linearly inside the landing bucket, which
// bounds the relative error by the bucket width (a factor of 2).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace adgc {

class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  Histogram() = default;
  Histogram(const Histogram& other) { copy_from(other); }
  Histogram& operator=(const Histogram& other) {
    if (this != &other) copy_from(other);
    return *this;
  }

  /// Bucket index a value lands in.
  static constexpr std::size_t bucket_of(std::uint64_t v) {
    const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket `i` (the Prometheus `le`); the last
  /// bucket is unbounded.
  static constexpr std::uint64_t bucket_le(std::size_t i) {
    if (i + 1 >= kBuckets) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  /// Inclusive lower bound of bucket `i`.
  static constexpr std::uint64_t bucket_lo(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Approximate value at quantile `q` in [0,1] (linear interpolation within
  /// the landing bucket). Returns 0 for an empty histogram.
  std::uint64_t quantile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    // Rank of the sample we are after, 1-based.
    std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t in_bucket = bucket(i);
      if (in_bucket == 0) continue;
      if (seen + in_bucket < rank) {
        seen += in_bucket;
        continue;
      }
      const std::uint64_t lo = bucket_lo(i);
      // The unbounded tail bucket has no meaningful width; report its floor.
      if (i + 1 >= kBuckets) return lo;
      const std::uint64_t width = bucket_le(i) - lo;
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
      return lo + static_cast<std::uint64_t>(frac * static_cast<double>(width));
    }
    return bucket_lo(kBuckets - 1);  // unreachable with a consistent count
  }

  /// Adds every bucket (and the sum) of `other` into this. Zero buckets are
  /// skipped: most are, and a load costs far less than a locked add.
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (const std::uint64_t v = other.bucket(i); v != 0) {
        buckets_[i].fetch_add(v, std::memory_order_relaxed);
      }
    }
    if (const std::uint64_t v = other.sum(); v != 0) {
      sum_.fetch_add(v, std::memory_order_relaxed);
    }
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  void copy_from(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i].store(other.bucket(i), std::memory_order_relaxed);
    }
    sum_.store(other.sum(), std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace adgc
