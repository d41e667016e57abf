// Readers querying the sharded store while a writer streams updates into
// every shard. Each per-shard query runs under that shard's shared lock;
// the `Sharded` fixture name puts this file inside the ThreadSanitizer
// ctest gate (CMakePresets `Sharded|Concurrent|...`), where TSan checks
// that no query reads state a write is changing, and the asserts check
// MUST-soundness and exact nearest answers under the races.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "db/sharded_database.h"
#include "util/rng.h"

namespace modb::db {
namespace {

// Range and interval answers must stay MUST-sound for objects that are not
// being mutated, and nearest answers well-ordered, while updates stream
// into every shard.
TEST(ShardedConcurrentQueryTest, RangeQueriesSoundUnderWrites) {
  geo::RouteNetwork network;
  const geo::RouteId street =
      network.AddStraightRoute({0.0, 0.0}, {400.0, 0.0}, "street");

  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 0;  // query on the caller, races come from us
  ShardedModDatabase db(&network, options);

  auto attr_at = [&](double s, double v) {
    core::PositionAttribute attr;
    attr.route = street;
    attr.start_route_distance = s;
    attr.start_position = network.route(street).PointAt(s);
    attr.speed = v;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  };

  // Stationary fleet inside the query region: every answer must contain
  // all of them in MUST, whatever the concurrent writers are doing to the
  // moving fleet.
  constexpr core::ObjectId kStationary = 64;
  for (core::ObjectId id = 0; id < kStationary; ++id) {
    ASSERT_TRUE(db.Insert(id, "s", attr_at(100.0 + id, 0.0)).ok());
  }
  constexpr core::ObjectId kMovingBase = 1000;
  constexpr core::ObjectId kMoving = 64;
  for (core::ObjectId id = 0; id < kMoving; ++id) {
    ASSERT_TRUE(
        db.Insert(kMovingBase + id, "m", attr_at(10.0 + id, 0.5)).ok());
  }

  // x in [80, 320]: the whole stationary fleet is inside, the moving
  // fleet crosses the boundary as the writer streams updates.
  const geo::Polygon region = geo::Polygon::CenteredRectangle(
      {200.0, 0.0}, 120.0, 40.0);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    util::Rng rng(31);
    for (int round = 0; round < 150; ++round) {
      core::PositionUpdate update;
      update.object = kMovingBase + (round % kMoving);
      update.time = 1.0 + round * 0.01;
      update.route = street;
      update.route_distance = rng.Uniform(10.0, 390.0);
      update.position = network.route(street).PointAt(update.route_distance);
      update.direction = core::TravelDirection::kForward;
      update.speed = rng.Uniform(0.1, 1.0);
      ASSERT_TRUE(db.ApplyUpdate(update).ok());
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const RangeAnswer answer = db.QueryRange(region, 2.0);
        std::size_t stationary_must = 0;
        for (core::ObjectId id : answer.must) {
          if (id < kStationary) ++stationary_must;
        }
        EXPECT_EQ(stationary_must, kStationary);

        const IntervalRangeAnswer window =
            db.QueryRangeInterval(region, 1.0, 3.0, 1.0);
        std::size_t stationary_some_time = 0;
        for (core::ObjectId id : window.must_at_some_time) {
          if (id < kStationary) ++stationary_some_time;
        }
        EXPECT_EQ(stationary_some_time, kStationary);

        const NearestAnswer nearest = db.QueryNearest({200.0, 0.0}, 5, 2.0);
        ASSERT_EQ(nearest.items.size(), 5u);
        for (std::size_t i = 1; i < nearest.items.size(); ++i) {
          const NearestAnswer::Item& a = nearest.items[i - 1];
          const NearestAnswer::Item& b = nearest.items[i];
          EXPECT_LT(std::pair(a.db_distance, a.id),
                    std::pair(b.db_distance, b.id));
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

// A nearest query is one expanding-square search over the whole store,
// each round a fan-out on the pool under the shards' shared locks and no
// lock held between rounds, while a writer moves objects in every shard.
// The k nearest are parked 21-29 units from the query point, and the
// writer moves the rest only more than 100 units away, so every answer
// must be exactly the parked objects, in item order.
TEST(ShardedConcurrentQueryTest, NearestRoundsStayExactUnderWrites) {
  geo::RouteNetwork network;
  // Span 641, so the first square's half-width is about 10: it holds none
  // of the parked objects, the second holds some, and only a third can
  // hold them all.
  const geo::RouteId street =
      network.AddStraightRoute({0.0, 0.0}, {640.0, 0.0}, "street");

  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 2;  // every round fans out on the pool
  ShardedModDatabase db(&network, options);

  auto attr_at = [&](double s, double v) {
    core::PositionAttribute attr;
    attr.route = street;
    attr.start_route_distance = s;
    attr.start_position = network.route(street).PointAt(s);
    attr.speed = v;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  };

  const geo::Point2 query{300.0, 0.0};
  // Parked ids 0..5, in item order: distances 21, 22, 24, 25, 27, 29.
  const double offsets[] = {-21.0, 22.0, -24.0, 25.0, -27.0, 29.0};
  std::vector<core::ObjectId> parked;
  for (const double offset : offsets) {
    const auto id = static_cast<core::ObjectId>(parked.size());
    ASSERT_TRUE(db.Insert(id, "p", attr_at(query.x + offset, 0.0)).ok());
    parked.push_back(id);
  }
  constexpr core::ObjectId kMovingBase = 1000;
  constexpr core::ObjectId kMoving = 48;
  for (core::ObjectId id = 0; id < kMoving; ++id) {
    ASSERT_TRUE(
        db.Insert(kMovingBase + id, "m", attr_at(420.0 + 3.0 * id, 0.5)).ok());
  }

  // The writer streams updates until both readers have run all their
  // queries, so every query races writes.
  constexpr int kQueriesPerReader = 150;
  std::atomic<int> readers_done{0};
  std::thread writer([&] {
    util::Rng rng(37);
    for (int round = 0; readers_done.load(std::memory_order_acquire) < 2;
         ++round) {
      core::PositionUpdate update;
      update.object = kMovingBase + (round % kMoving);
      update.time = 1.0 + round * 1e-5;
      update.route = street;
      update.route_distance = rng.Uniform(420.0, 630.0);
      update.position = network.route(street).PointAt(update.route_distance);
      update.direction = core::TravelDirection::kForward;
      update.speed = rng.Uniform(0.1, 1.0);
      EXPECT_TRUE(db.ApplyUpdate(update).ok());
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const NearestAnswer nearest = db.QueryNearest(query, 6, 2.0);
        std::vector<core::ObjectId> ids;
        for (const NearestAnswer::Item& item : nearest.items) {
          ids.push_back(item.id);
        }
        EXPECT_EQ(ids, parked) << "query " << q;
        if (ids != parked) break;
      }
      readers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (std::thread& t : readers) t.join();
  writer.join();
  // At least three rounds per query.
  EXPECT_GE(db.metrics().GetCounter("sharded.nearest_rounds")->value(),
            3u * 2 * kQueriesPerReader);
}

}  // namespace
}  // namespace modb::db
