#include "util/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

namespace modb::util {
namespace {

TEST(MetricsTest, CounterIncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeSetAddReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Set(10);
  EXPECT_EQ(g.value(), 10);
  g.Add(5);
  g.Add(-12);  // signed deltas: levels may go down (and below zero)
  EXPECT_EQ(g.value(), 3);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsTest, SharedGaugeAggregatesSignedDeltas) {
  // Two writers applying deltas to one gauge (the sharded layer's
  // aggregation pattern): the gauge reads as the sum of contributions.
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("pool.depth");
  EXPECT_EQ(g, registry.GetGauge("pool.depth"));
  g->Add(7);   // writer A
  g->Add(4);   // writer B
  g->Add(-7);  // writer A withdraws on detach
  EXPECT_EQ(g->value(), 4);
}

TEST(MetricsTest, RegistryReturnsStableSharedInstruments) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);  // same name -> same instrument (aggregation across shards)
  EXPECT_NE(a, registry.GetCounter("y"));
  EXPECT_EQ(registry.GetLatency("l"), registry.GetLatency("l"));
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
}

TEST(MetricsTest, LatencyHistogramStatistics) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ApproxQuantileMicros(0.5), 0.0);
  // 1000 samples of 8 µs, 10 of 1024 µs.
  for (int i = 0; i < 1000; ++i) h.RecordNanos(8 * 1000);
  for (int i = 0; i < 10; ++i) h.RecordNanos(1024 * 1000);
  EXPECT_EQ(h.count(), 1010u);
  EXPECT_NEAR(h.mean_micros(), (1000.0 * 8 + 10.0 * 1024) / 1010.0, 0.1);
  EXPECT_NEAR(h.max_micros(), 1024.0, 0.001);
  // Log2 buckets: the p50 lands in the [8, 16) µs bucket, i.e. within a
  // factor of 2 of the true value; p999-ish lands near 1024.
  const double p50 = h.ApproxQuantileMicros(0.5);
  EXPECT_GE(p50, 4.0);
  EXPECT_LE(p50, 16.0);
  const double p999 = h.ApproxQuantileMicros(0.999);
  EXPECT_GE(p999, 512.0);
  EXPECT_LE(p999, 2048.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_micros(), 0.0);
}

TEST(MetricsTest, LatencyQuantilesNeverExceedObservedMax) {
  // One 1000 ns sample lands in the [1, 2) µs bucket, whose geometric
  // midpoint (~1.41 µs) lies above the only sample.
  LatencyHistogram h;
  h.RecordNanos(1000);
  EXPECT_DOUBLE_EQ(h.max_micros(), 1.0);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_LE(h.ApproxQuantileMicros(q), h.max_micros()) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.ApproxQuantileMicros(0.5), 1.0);
}

TEST(MetricsTest, LatencyQuantilesNeverFallBelowObservedMin) {
  // One 1999 ns sample lands in the [1, 2) µs bucket, whose geometric
  // midpoint (~1.41 µs) lies below the only sample.
  LatencyHistogram h;
  h.RecordNanos(1999);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_GE(h.ApproxQuantileMicros(q), 1.999) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.ApproxQuantileMicros(0.5), 1.999);
  // Reset forgets the min along with the max.
  h.Reset();
  h.RecordNanos(1000);
  EXPECT_DOUBLE_EQ(h.ApproxQuantileMicros(0.5), 1.0);
}

TEST(MetricsTest, SnapshotReusesHistogram) {
  LatencyHistogram h;
  for (int i = 0; i < 7; ++i) h.RecordNanos(3 * 1000);  // bucket [2,4) µs
  const Histogram snapshot = h.SnapshotLog2Micros();
  EXPECT_EQ(snapshot.count(), 7u);
  // log2 domain: 3 µs -> bucket index 2 (spans [2^1, 2^2) µs).
  EXPECT_EQ(snapshot.bucket_count(2), 7u);
}

TEST(MetricsTest, DumpListsInstrumentsSorted) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Increment(3);
  registry.GetCounter("a.count")->Increment(1);
  registry.GetGauge("g.level")->Add(-2);
  registry.GetLatency("q.latency")->RecordNanos(5000);
  const std::string dump = registry.Dump();
  EXPECT_NE(dump.find("counter a.count 1"), std::string::npos);
  EXPECT_NE(dump.find("counter b.count 3"), std::string::npos);
  EXPECT_NE(dump.find("gauge g.level -2"), std::string::npos);
  EXPECT_NE(dump.find("latency q.latency count=1"), std::string::npos);
  EXPECT_LT(dump.find("a.count"), dump.find("b.count"));
}

TEST(MetricsTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("hot");
  LatencyHistogram* h = registry.GetLatency("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->RecordNanos(1000 * (1 + i % 64));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace modb::util
