// Multi-threaded stress test of the sharded database: concurrent writers
// applying dead-reckoning style updates, readers issuing every query form,
// and churn (insert/erase) all at once. Run it under ThreadSanitizer via
// -DMODB_SANITIZE=thread to gate future concurrency work on race
// detection; the assertions here check invariants that survive any legal
// interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "db/sharded_database.h"
#include "util/rng.h"

namespace modb::db {
namespace {

class ConcurrentStressTest : public testing::Test {
 protected:
  ConcurrentStressTest() {
    for (int i = 0; i < 4; ++i) {
      routes_.push_back(network_.AddStraightRoute(
          {0.0, 25.0 * i}, {500.0, 25.0 * i}, "r" + std::to_string(i)));
    }
  }

  core::PositionAttribute Attr(geo::RouteId route, double s, double v) const {
    core::PositionAttribute attr;
    attr.route = route;
    attr.start_route_distance = s;
    attr.start_position = network_.route(route).PointAt(s);
    attr.speed = v;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  }

  geo::RouteNetwork network_;
  std::vector<geo::RouteId> routes_;
};

TEST_F(ConcurrentStressTest, MixedUpdateQueryChurnWorkload) {
  ShardedModDatabaseOptions options;
  options.num_shards = 8;
  options.num_query_threads = 2;
  ShardedModDatabase db(&network_, options);

  // Stable fleet the writers keep updating (never erased).
  constexpr core::ObjectId kStableObjects = 64;
  for (core::ObjectId id = 0; id < kStableObjects; ++id) {
    ASSERT_TRUE(
        db.Insert(id, "stable", Attr(routes_[id % 4], 10.0, 1.0)).ok());
  }

  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kOpsPerThread = 400;
  std::atomic<int> update_failures{0};
  std::vector<std::thread> threads;

  // Writers: monotone-time updates to the stable fleet. Each object's
  // timestamps come from one writer (id striped by writer index), so every
  // ApplyUpdate must succeed.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      util::Rng rng(1000 + w);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const core::ObjectId id =
            (static_cast<core::ObjectId>(rng.UniformInt(0, 63)) / kWriters) *
                kWriters +
            w;
        if (id >= kStableObjects) continue;
        core::PositionUpdate update;
        update.object = id;
        update.time = 1.0 + op;  // per-writer monotone per object
        update.route = routes_[id % 4];
        const double s = rng.Uniform(0.0, 450.0);
        update.route_distance = s;
        update.position = network_.route(update.route).PointAt(s);
        update.direction = core::TravelDirection::kForward;
        update.speed = rng.Uniform(0.0, 1.4);
        if (!db.ApplyUpdate(update).ok()) update_failures.fetch_add(1);
      }
    });
  }

  // Churn: a private id range per churner, inserted and erased repeatedly.
  threads.emplace_back([&] {
    util::Rng rng(77);
    for (int op = 0; op < kOpsPerThread; ++op) {
      const core::ObjectId id =
          1000 + static_cast<core::ObjectId>(rng.UniformInt(0, 15));
      if (db.GetRecord(id).ok()) {
        (void)db.Erase(id);
      } else {
        (void)db.Insert(id, "churn",
                        Attr(routes_[id % 4], rng.Uniform(0.0, 450.0), 0.5));
      }
    }
  });

  // Readers: every query form; answers must stay structurally sane.
  std::atomic<int> malformed_answers{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      util::Rng rng(2000 + r);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const double x0 = rng.Uniform(0.0, 400.0);
        const geo::Polygon region =
            geo::Polygon::Rectangle(x0, -5.0, x0 + 60.0, 80.0);
        const core::Time t = rng.Uniform(0.0, 100.0);
        switch (op % 4) {
          case 0: {
            const RangeAnswer a = db.QueryRange(region, t);
            if (a.may.size() != a.may_probability.size()) {
              malformed_answers.fetch_add(1);
            }
            if (!std::is_sorted(a.must.begin(), a.must.end()) ||
                !std::is_sorted(a.may.begin(), a.may.end())) {
              malformed_answers.fetch_add(1);
            }
            break;
          }
          case 1: {
            const NearestAnswer a =
                db.QueryNearest({x0, rng.Uniform(0.0, 75.0)}, 5, t);
            if (a.items.size() > 5) malformed_answers.fetch_add(1);
            for (std::size_t i = 1; i < a.items.size(); ++i) {
              if (a.items[i - 1].db_distance > a.items[i].db_distance) {
                malformed_answers.fetch_add(1);
              }
            }
            break;
          }
          case 2: {
            const IntervalRangeAnswer a =
                db.QueryRangeInterval(region, t, t + 10.0, 2.0);
            if (!std::includes(a.may.begin(), a.may.end(),
                               a.must_at_some_time.begin(),
                               a.must_at_some_time.end())) {
              malformed_answers.fetch_add(1);
            }
            break;
          }
          case 3: {
            const core::ObjectId id =
                static_cast<core::ObjectId>(rng.UniformInt(0, 63));
            const auto a = db.QueryPosition(id, t);
            if (a.ok() && a->route_distance < 0.0) {
              malformed_answers.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }

  for (auto& t : threads) t.join();

  EXPECT_EQ(update_failures.load(), 0);
  EXPECT_EQ(malformed_answers.load(), 0);
  // The stable fleet survived the churn untouched.
  EXPECT_GE(db.num_objects(), kStableObjects);
  for (core::ObjectId id = 0; id < kStableObjects; ++id) {
    EXPECT_TRUE(db.GetRecord(id).ok()) << id;
  }
  // Metrics kept exact counts despite concurrency.
  EXPECT_EQ(
      db.metrics().GetCounter("sharded.queries_range")->value() +
          db.metrics().GetCounter("sharded.queries_nearest")->value() +
          db.metrics().GetCounter("sharded.queries_interval")->value() +
          db.metrics().GetCounter("sharded.queries_position")->value(),
      static_cast<std::uint64_t>(kReaders) * kOpsPerThread);
}

TEST_F(ConcurrentStressTest, ParallelBulkLoadThenConcurrentReads) {
  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 2;
  ShardedModDatabase db(&network_, options);

  std::vector<ShardedModDatabase::BulkObject> batch;
  util::Rng rng(5);
  for (core::ObjectId id = 0; id < 500; ++id) {
    batch.push_back({id, "",
                     Attr(routes_[id % 4], rng.Uniform(0.0, 450.0),
                          rng.Uniform(0.0, 1.2))});
  }
  ASSERT_TRUE(db.BulkInsert(std::move(batch)).ok());
  ASSERT_EQ(db.num_objects(), 500u);

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      util::Rng thread_rng(100 + r);
      for (int q = 0; q < 50; ++q) {
        const double x0 = thread_rng.Uniform(0.0, 400.0);
        const geo::Polygon region =
            geo::Polygon::Rectangle(x0, -5.0, x0 + 50.0, 80.0);
        const RangeAnswer a = db.QueryRange(region, 5.0);
        const RangeAnswer b = db.QueryRange(region, 5.0);
        if (a.must != b.must || a.may != b.may) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);  // no writers -> queries are repeatable
}

}  // namespace
}  // namespace modb::db
