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

// 8 readers racing 1 writer while the group tracker forms, splits and
// re-forms convoys on the write path. Gates the group layer's mutations
// (detection cells, membership, envelope rows, shared metrics) under
// ThreadSanitizer, and checks the final answers byte-for-byte against an
// ungrouped, unsharded replay of the same update stream.
TEST_F(ConcurrentStressTest, GroupTrackedConvoysUnderReaderWriterStress) {
  constexpr std::size_t kConvoys = 3;
  constexpr std::size_t kMembers = 6;
  constexpr int kTicks = 120;
  constexpr int kReaders = 8;

  const auto member_id = [](std::size_t c, std::size_t m) {
    return static_cast<core::ObjectId>(100 * (c + 1) + m);
  };
  // One deterministic update stream, replayed later for the reference:
  // per tick, every member advances 1.0 at declared speed 1.0 (cohesive);
  // one member per convoy periodically defects to route 3 and back, so
  // groups split and re-form while the readers run.
  const auto build_tick = [&](int tick) {
    std::vector<core::PositionUpdate> batch;
    for (std::size_t c = 0; c < kConvoys; ++c) {
      for (std::size_t m = 0; m < kMembers; ++m) {
        const bool defector = m == 0 && (tick / 20) % 2 == 1;
        core::PositionUpdate u;
        u.object = member_id(c, m);
        u.time = 1.0 + tick;
        u.route = defector ? routes_[3] : routes_[c];
        u.route_distance = 1.0 * (1 + tick) + 0.5 * m;
        u.position = network_.route(u.route).PointAt(u.route_distance);
        u.direction = core::TravelDirection::kForward;
        u.speed = 1.0;
        batch.push_back(u);
      }
    }
    return batch;
  };

  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 2;
  options.db.index_kind = IndexKind::kTimeSpaceRTree;  // the envelope kind
  options.db.group_tracking.enabled = true;
  ShardedModDatabase db(&network_, options);
  for (std::size_t c = 0; c < kConvoys; ++c) {
    for (std::size_t m = 0; m < kMembers; ++m) {
      ASSERT_TRUE(db.Insert(member_id(c, m), "convoy",
                            Attr(routes_[c], 0.5 * m, 1.0))
                      .ok());
    }
  }

  std::atomic<int> update_failures{0};
  std::atomic<int> malformed_answers{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int tick = 0; tick < kTicks; ++tick) {
      const auto batch = build_tick(tick);
      if (!db.ApplyUpdateBatch(batch).first_error().ok()) {
        update_failures.fetch_add(1);
      }
    }
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      util::Rng rng(3000 + r);
      for (int op = 0; op < 200; ++op) {
        const double x0 = rng.Uniform(0.0, 400.0);
        const geo::Polygon region =
            geo::Polygon::Rectangle(x0, -5.0, x0 + 60.0, 80.0);
        const core::Time t = rng.Uniform(0.0, 130.0);
        if (op % 3 == 0) {
          const NearestAnswer a =
              db.QueryNearest({x0, rng.Uniform(0.0, 75.0)}, 4, t);
          if (a.items.size() > 4) malformed_answers.fetch_add(1);
          continue;
        }
        if (op % 3 == 1) {
          const IntervalRangeAnswer a =
              db.QueryRangeInterval(region, t, t + 5.0, 2.5);
          if (!std::includes(a.may.begin(), a.may.end(),
                             a.must_at_some_time.begin(),
                             a.must_at_some_time.end())) {
            malformed_answers.fetch_add(1);
          }
          continue;
        }
        const RangeAnswer a = db.QueryRange(region, t);
        if (a.may.size() != a.may_probability.size() ||
            !std::is_sorted(a.must.begin(), a.must.end()) ||
            !std::is_sorted(a.may.begin(), a.may.end())) {
          malformed_answers.fetch_add(1);
        }
        for (core::ObjectId id : a.must) {
          // MUST answers name real member objects, never a group's
          // synthetic envelope id (bit 63).
          if ((id >> 63) != 0) malformed_answers.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(update_failures.load(), 0);
  EXPECT_EQ(malformed_answers.load(), 0);

  // The shards' trackers aggregated their group activity into the shared
  // registry, and the writer's convoys really formed and split.
  EXPECT_GT(db.metrics().GetCounter("mod.group.forms")->value(), 0u);
  EXPECT_GT(db.metrics().GetCounter("mod.group.splits")->value(), 0u);

  // Final answers equal an ungrouped, unsharded replay byte-for-byte.
  ModDatabase reference(&network_);
  for (std::size_t c = 0; c < kConvoys; ++c) {
    for (std::size_t m = 0; m < kMembers; ++m) {
      ASSERT_TRUE(reference.Insert(member_id(c, m), "convoy",
                                   Attr(routes_[c], 0.5 * m, 1.0))
                      .ok());
    }
  }
  for (int tick = 0; tick < kTicks; ++tick) {
    const auto batch = build_tick(tick);
    ASSERT_TRUE(reference.ApplyUpdateBatch(batch).first_error().ok());
  }
  for (const double x0 : {0.0, 60.0, 120.0, 180.0}) {
    const geo::Polygon region =
        geo::Polygon::Rectangle(x0, -5.0, x0 + 70.0, 80.0);
    for (const double t : {5.0, 60.0, 119.0, 125.0}) {
      const RangeAnswer got = db.QueryRange(region, t);
      const RangeAnswer want = reference.QueryRange(region, t);
      EXPECT_EQ(got.must, want.must) << x0 << "@" << t;
      EXPECT_EQ(got.may, want.may) << x0 << "@" << t;
      EXPECT_EQ(got.may_probability, want.may_probability) << x0 << "@" << t;
    }
  }
}

}  // namespace
}  // namespace modb::db
