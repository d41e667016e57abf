#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace modb::util {

namespace {

// Bucket for a latency of `micros` µs: 0 for < 1 µs, else 1 + floor(log2),
// clamped to the top bucket.
std::size_t BucketOf(std::uint64_t micros) {
  if (micros == 0) return 0;
  const auto log2_floor =
      static_cast<std::size_t>(std::bit_width(micros) - 1);
  return std::min(log2_floor + 1, LatencyHistogram::kNumBuckets - 1);
}

}  // namespace

void LatencyHistogram::RecordNanos(std::uint64_t nanos) {
  const std::uint64_t micros = nanos / 1000;
  buckets_[BucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  std::uint64_t prev = max_nanos_.load(std::memory_order_relaxed);
  while (prev < nanos && !max_nanos_.compare_exchange_weak(
                             prev, nanos, std::memory_order_relaxed)) {
  }
  prev = min_nanos_.load(std::memory_order_relaxed);
  while (prev > nanos && !min_nanos_.compare_exchange_weak(
                             prev, nanos, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::mean_micros() const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
         1e-3 / static_cast<double>(n);
}

Histogram LatencyHistogram::SnapshotLog2Micros() const {
  Histogram snapshot(0.0, static_cast<double>(kNumBuckets), kNumBuckets);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c > 0) snapshot.AddBucketCount(i, static_cast<std::size_t>(c));
  }
  return snapshot;
}

double LatencyHistogram::ApproxQuantileMicros(double q) const {
  const Histogram snapshot = SnapshotLog2Micros();
  if (snapshot.count() == 0) return 0.0;
  // Bucket i spans [2^(i-1), 2^i) µs; the snapshot's log2-domain quantile
  // lands on a bucket midpoint i + 0.5, so 2^(x - 1) recovers the bucket's
  // geometric center scale. Bucket 0 (< 1 µs) maps below 1. That center
  // can lie above or below every sample in the bucket (one 1000 ns sample
  // would report ~1.41 µs, one 1999 ns sample the same), so clamp to the
  // observed [min, max].
  double micros = std::exp2(snapshot.ApproxQuantile(q) - 1.0);
  const std::uint64_t min_nanos = min_nanos_.load(std::memory_order_relaxed);
  if (min_nanos != kNoMin) {
    micros = std::max(micros, static_cast<double>(min_nanos) * 1e-3);
  }
  return std::min(micros, max_micros());
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
  max_nanos_.store(0, std::memory_order_relaxed);
  min_nanos_.store(kNoMin, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetLatency(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = latencies_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

std::string MetricsRegistry::Dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [name, counter] : counters_) {
    std::snprintf(line, sizeof(line), "counter %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter->value()));
    out += line;
  }
  for (const auto& [name, gauge] : gauges_) {
    std::snprintf(line, sizeof(line), "gauge %s %lld\n", name.c_str(),
                  static_cast<long long>(gauge->value()));
    out += line;
  }
  for (const auto& [name, latency] : latencies_) {
    std::snprintf(line, sizeof(line),
                  "latency %s count=%llu mean_us=%.1f p50_us=%.1f "
                  "p90_us=%.1f p99_us=%.1f max_us=%.1f\n",
                  name.c_str(),
                  static_cast<unsigned long long>(latency->count()),
                  latency->mean_micros(), latency->ApproxQuantileMicros(0.5),
                  latency->ApproxQuantileMicros(0.9),
                  latency->ApproxQuantileMicros(0.99), latency->max_micros());
    out += line;
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, latency] : latencies_) latency->Reset();
}

}  // namespace modb::util
