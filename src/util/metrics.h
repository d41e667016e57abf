#ifndef MODB_UTIL_METRICS_H_
#define MODB_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/histogram.h"

namespace modb::util {

/// Monotonic event counter. Increments and reads are lock-free and safe
/// from any thread (relaxed ordering: counters are statistics, not
/// synchronisation).
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (entries in a tree, frames in a pool, queue
/// depth). Unlike `Counter` it is signed and may go down. `Add` with a
/// signed delta is the aggregation-friendly update: several databases
/// sharing one gauge (the sharded layer) each apply their own deltas and
/// the gauge reads as the sum. Lock-free, relaxed ordering.
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Lock-free latency histogram: log2-spaced buckets over microseconds
/// (bucket i counts latencies in [2^(i-1), 2^i) µs; bucket 0 is < 1 µs).
/// Recording is wait-free; readers observe a consistent-enough snapshot
/// for reporting. Quantiles are computed by snapshotting the buckets into
/// a `util::Histogram` over the log2 domain and exponentiating back.
class LatencyHistogram {
 public:
  /// Buckets cover < 1 µs up to >= 2^38 µs (~76 hours) in the top bucket.
  static constexpr std::size_t kNumBuckets = 40;

  void RecordNanos(std::uint64_t nanos);
  void Record(std::chrono::steady_clock::duration d) {
    RecordNanos(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()));
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double mean_micros() const;
  double max_micros() const {
    return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) *
           1e-3;
  }

  /// Approximate `q`-quantile in microseconds (bucket-midpoint precision in
  /// the log2 domain, i.e. within ~1.4x of the true value), never below
  /// the smallest sample or above `max_micros()`. 0 when empty.
  double ApproxQuantileMicros(double q) const;

  /// Snapshot of the bucket counts as an equal-width histogram over
  /// x = log2(latency_µs), reusing `util::Histogram` for rendering and
  /// quantile machinery.
  Histogram SnapshotLog2Micros() const;

  void Reset();

 private:
  // `min_nanos_` of an empty histogram.
  static constexpr std::uint64_t kNoMin = ~std::uint64_t{0};

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_nanos_{0};
  std::atomic<std::uint64_t> max_nanos_{0};
  std::atomic<std::uint64_t> min_nanos_{kNoMin};
};

/// Records the lifetime of the scope into a latency histogram. A null
/// histogram disables the timer (and skips the clock reads).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LatencyHistogram* h)
      : h_(h),
        start_(h ? std::chrono::steady_clock::now()
                 : std::chrono::steady_clock::time_point()) {}
  ~ScopedLatencyTimer() {
    if (h_ != nullptr) h_->Record(std::chrono::steady_clock::now() - start_);
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  LatencyHistogram* h_;
  std::chrono::steady_clock::time_point start_;
};

/// Named registry of counters and latency histograms.
///
/// Registration (`GetCounter` / `GetLatency`) takes a mutex; the returned
/// pointers are stable for the registry's lifetime, so hot paths register
/// once, cache the pointer, and then update lock-free. The same name always
/// yields the same instrument, which is how the sharded database aggregates
/// one logical counter across shards.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetLatency(const std::string& name);

  /// Renders every instrument as text, one per line, sorted by name:
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   latency <name> count=N mean_us=M p50_us=… p90_us=… p99_us=… max_us=…
  std::string Dump() const;

  /// Zeroes every registered instrument (pointers stay valid).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> latencies_;
};

}  // namespace modb::util

#endif  // MODB_UTIL_METRICS_H_
