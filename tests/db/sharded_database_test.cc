// Tests of the sharded concurrency layer: cross-shard parity with a single
// ModDatabase on identical fleets, bulk-load atomicity across shards, and
// the metrics endpoint.

#include "db/sharded_database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace modb::db {
namespace {

class ShardedDatabaseTest : public testing::Test {
 protected:
  ShardedDatabaseTest() {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {400.0, 0.0}, "street");
    avenue_ = network_.AddStraightRoute({0.0, 30.0}, {400.0, 30.0}, "avenue");
  }

  core::PositionAttribute Attr(geo::RouteId route, double s,
                               double v = 0.0) const {
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

  core::PositionUpdate Update(core::ObjectId id, core::Time t,
                              double s, double v) const {
    core::PositionUpdate update;
    update.object = id;
    update.time = t;
    update.route = street_;
    update.route_distance = s;
    update.position = network_.route(street_).PointAt(s);
    update.direction = core::TravelDirection::kForward;
    update.speed = v;
    return update;
  }

  /// Builds the same random fleet in both databases.
  void LoadIdenticalFleet(ModDatabase* single, ShardedModDatabase* sharded,
                          std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    for (core::ObjectId id = 0; id < n; ++id) {
      const auto attr = Attr(id % 2 == 0 ? street_ : avenue_,
                             rng.Uniform(0.0, 350.0), rng.Uniform(0.0, 1.2));
      ASSERT_TRUE(single->Insert(id, "o", attr).ok());
      ASSERT_TRUE(sharded->Insert(id, "o", attr).ok());
    }
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  geo::RouteId avenue_ = geo::kInvalidRouteId;
};

ShardedModDatabaseOptions FourShards() {
  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 2;  // exercise the pool path deterministically
  return options;
}

TEST_F(ShardedDatabaseTest, BasicCrudRoutesToOwningShard) {
  ShardedModDatabase db(&network_, FourShards());
  EXPECT_EQ(db.num_shards(), 4u);
  ASSERT_TRUE(db.Insert(7, "cab", Attr(street_, 100.0, 1.0)).ok());
  EXPECT_EQ(db.Insert(7, "dup", Attr(street_, 0.0)).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(db.num_objects(), 1u);

  const auto record = db.GetRecord(7);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->label, "cab");

  ASSERT_TRUE(db.ApplyUpdate(Update(7, 5.0, 110.0, 0.5)).ok());
  const auto answer = db.QueryPosition(7, 5.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer->route_distance, 110.0);

  EXPECT_EQ(db.ApplyUpdate(Update(99, 1.0, 0.0, 0.0)).code(),
            util::StatusCode::kNotFound);
  ASSERT_TRUE(db.Erase(7).ok());
  EXPECT_EQ(db.num_objects(), 0u);
  EXPECT_EQ(db.Erase(7).code(), util::StatusCode::kNotFound);
}

TEST_F(ShardedDatabaseTest, ShardOfIsStableAndCoversAllShards) {
  ShardedModDatabase db(&network_, FourShards());
  std::vector<bool> hit(db.num_shards(), false);
  for (core::ObjectId id = 0; id < 256; ++id) {
    const std::size_t s = db.ShardOf(id);
    ASSERT_LT(s, db.num_shards());
    EXPECT_EQ(s, db.ShardOf(id));  // stable
    hit[s] = true;
  }
  for (std::size_t s = 0; s < hit.size(); ++s) {
    EXPECT_TRUE(hit[s]) << "shard " << s << " never used";
  }
}

TEST_F(ShardedDatabaseTest, RangeQueryMatchesSingleDatabase) {
  ModDatabase single(&network_);
  ShardedModDatabase sharded(&network_, FourShards());
  LoadIdenticalFleet(&single, &sharded, 60, 11);

  util::Rng rng(12);
  for (int q = 0; q < 25; ++q) {
    const double x0 = rng.Uniform(0.0, 350.0);
    const geo::Polygon region =
        geo::Polygon::Rectangle(x0, -5.0, x0 + 40.0, 35.0);
    const core::Time t = rng.Uniform(0.0, 40.0);
    const RangeAnswer a = single.QueryRange(region, t);
    const RangeAnswer b = sharded.QueryRange(region, t);
    EXPECT_EQ(a.must, b.must) << "q=" << q;
    EXPECT_EQ(a.may, b.may) << "q=" << q;
    ASSERT_EQ(a.may_probability.size(), b.may_probability.size());
    for (std::size_t i = 0; i < a.may_probability.size(); ++i) {
      EXPECT_NEAR(a.may_probability[i], b.may_probability[i], 1e-12);
    }
    EXPECT_EQ(a.candidates_examined, b.candidates_examined) << "q=" << q;
  }
}

TEST_F(ShardedDatabaseTest, NearestQueryMatchesSingleDatabase) {
  ModDatabase single(&network_);
  ShardedModDatabase sharded(&network_, FourShards());
  LoadIdenticalFleet(&single, &sharded, 60, 21);

  util::Rng rng(22);
  for (int q = 0; q < 25; ++q) {
    const geo::Point2 p{rng.Uniform(0.0, 400.0), rng.Uniform(-10.0, 40.0)};
    const core::Time t = rng.Uniform(0.0, 30.0);
    const std::size_t k = 1 + static_cast<std::size_t>(q) % 7;
    const NearestAnswer a = single.QueryNearest(p, k, t);
    const NearestAnswer b = sharded.QueryNearest(p, k, t);
    ASSERT_EQ(a.items.size(), b.items.size()) << "q=" << q;
    for (std::size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].id, b.items[i].id) << "q=" << q << " i=" << i;
      EXPECT_NEAR(a.items[i].db_distance, b.items[i].db_distance, 1e-9);
      EXPECT_NEAR(a.items[i].min_possible_distance,
                  b.items[i].min_possible_distance, 1e-9);
      EXPECT_NEAR(a.items[i].max_possible_distance,
                  b.items[i].max_possible_distance, 1e-9);
    }
  }
}

TEST_F(ShardedDatabaseTest, NearestBreaksDistanceTiesByIdLikeSingleDatabase) {
  // Two parked objects share one database position, so their distances tie
  // exactly; neither candidate order nor shard order may pick the winner.
  ModDatabase single(&network_);
  ShardedModDatabaseOptions options;
  options.num_shards = 2;
  options.num_query_threads = 0;
  ShardedModDatabase sharded(&network_, options);
  ASSERT_NE(sharded.ShardOf(1), sharded.ShardOf(2));
  for (const core::ObjectId id : {1, 2}) {
    ASSERT_TRUE(single.Insert(id, "parked", Attr(street_, 100.0)).ok());
    ASSERT_TRUE(sharded.Insert(id, "parked", Attr(street_, 100.0)).ok());
  }
  for (const std::size_t k : {1, 2}) {
    const NearestAnswer a = single.QueryNearest({100.0, 5.0}, k, 10.0);
    const NearestAnswer b = sharded.QueryNearest({100.0, 5.0}, k, 10.0);
    ASSERT_EQ(a.items.size(), k);
    ASSERT_EQ(b.items.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(a.items[i].id, static_cast<core::ObjectId>(i + 1))
          << "k=" << k;
      EXPECT_EQ(b.items[i].id, a.items[i].id) << "k=" << k << " i=" << i;
    }
  }
}

TEST_F(ShardedDatabaseTest, NearestWorkMatchesSingleDatabase) {
  // One search for the whole store: each round probes one square on every
  // shard, so the shards together refine exactly the candidates a
  // ModDatabase over the same objects refines, inline or pooled. On the
  // route-band index the fleet is parked mid-route, so no band passes a
  // route end (one that does widens that index's later probes near an
  // end, and the stores' indexes would then differ).
  const std::pair<IndexKind, double> cases[] = {
      {IndexKind::kTimeSpaceRTree, 1.2}, {IndexKind::kRouteBand, 0.0}};
  for (const auto& [kind, max_speed] : cases) {
    ModDatabaseOptions db_options;
    db_options.index_kind = kind;
    ModDatabase single(&network_, db_options);
    ShardedModDatabaseOptions pooled_options = FourShards();
    pooled_options.db = db_options;
    ShardedModDatabaseOptions inline_options = pooled_options;
    inline_options.num_query_threads = 0;
    ShardedModDatabase pooled(&network_, pooled_options);
    ShardedModDatabase inlined(&network_, inline_options);
    util::Rng rng(61);
    for (core::ObjectId id = 0; id < 80; ++id) {
      const auto attr = Attr(id % 2 == 0 ? street_ : avenue_,
                             rng.Uniform(20.0, 380.0),
                             rng.Uniform(0.0, max_speed));
      ASSERT_TRUE(single.Insert(id, "o", attr).ok());
      ASSERT_TRUE(pooled.Insert(id, "o", attr).ok());
      ASSERT_TRUE(inlined.Insert(id, "o", attr).ok());
    }
    // Inside the network box (which spans [0, 400] x [0, 30]), on its
    // edge, and outside it.
    const geo::Point2 points[] = {{200.0, 15.0}, {5.0, 0.0},
                                  {390.0, 30.0}, {-60.0, 15.0},
                                  {200.0, -90.0}, {520.0, 70.0}};
    for (const geo::Point2& p : points) {
      for (const std::size_t k : {1, 3, 8}) {
        for (const core::Time t : {0.0, 12.0}) {
          const NearestAnswer want = single.QueryNearest(p, k, t);
          ASSERT_EQ(want.items.size(), k);
          for (const ShardedModDatabase* store : {&pooled, &inlined}) {
            const NearestAnswer got = store->QueryNearest(p, k, t);
            const std::string where =
                "kind " + std::to_string(static_cast<int>(kind)) + " at (" +
                std::to_string(p.x) + ", " + std::to_string(p.y) +
                ") k=" + std::to_string(k) + " t=" + std::to_string(t) +
                (store == &pooled ? " pooled" : " inline");
            ASSERT_EQ(got.items.size(), k) << where;
            for (std::size_t i = 0; i < k; ++i) {
              EXPECT_EQ(got.items[i].id, want.items[i].id) << where;
              EXPECT_EQ(got.items[i].db_distance, want.items[i].db_distance)
                  << where;
            }
            EXPECT_EQ(got.candidates_examined, want.candidates_examined)
                << where;
          }
        }
      }
    }
  }
}

TEST_F(ShardedDatabaseTest, NearestOnEmptyStoreEndsInOneRound) {
  // No shard holds an object, so the first round ends the search and no
  // index is probed.
  for (const std::size_t threads : {0, 2}) {
    ShardedModDatabaseOptions options = FourShards();
    options.num_query_threads = threads;
    ShardedModDatabase db(&network_, options);
    const NearestAnswer answer = db.QueryNearest({100.0, 0.0}, 3, 0.0);
    EXPECT_TRUE(answer.items.empty());
    EXPECT_EQ(answer.candidates_examined, 0u);
    EXPECT_TRUE(answer.completeness.complete);
    EXPECT_EQ(db.metrics().GetCounter("mod.index_probes")->value(), 0u);
    EXPECT_EQ(db.metrics().GetCounter("sharded.nearest_rounds")->value(), 1u)
        << threads << " threads";
  }
}

TEST_F(ShardedDatabaseTest, IntervalQueryMatchesSingleDatabase) {
  ModDatabase single(&network_);
  ShardedModDatabase sharded(&network_, FourShards());
  LoadIdenticalFleet(&single, &sharded, 40, 31);

  util::Rng rng(32);
  for (int q = 0; q < 15; ++q) {
    const double x0 = rng.Uniform(0.0, 320.0);
    const geo::Polygon region =
        geo::Polygon::Rectangle(x0, -5.0, x0 + 40.0, 35.0);
    const double t1 = rng.Uniform(0.0, 50.0);
    const double t2 = t1 + rng.Uniform(0.5, 40.0);
    const IntervalRangeAnswer a = single.QueryRangeInterval(region, t1, t2);
    const IntervalRangeAnswer b = sharded.QueryRangeInterval(region, t1, t2);
    EXPECT_EQ(a.may, b.may) << "q=" << q;
    EXPECT_EQ(a.must_at_some_time, b.must_at_some_time) << "q=" << q;
  }
}

TEST_F(ShardedDatabaseTest, InlineFanOutMatchesPooledFanOut) {
  ShardedModDatabaseOptions inline_opts = FourShards();
  inline_opts.num_query_threads = 0;
  ShardedModDatabase pooled(&network_, FourShards());
  ShardedModDatabase inlined(&network_, inline_opts);
  EXPECT_EQ(inlined.num_query_threads(), 0u);

  util::Rng rng(41);
  for (core::ObjectId id = 0; id < 30; ++id) {
    const auto attr = Attr(street_, rng.Uniform(0.0, 350.0), 0.5);
    ASSERT_TRUE(pooled.Insert(id, "", attr).ok());
    ASSERT_TRUE(inlined.Insert(id, "", attr).ok());
  }
  const geo::Polygon region =
      geo::Polygon::Rectangle(100.0, -1.0, 250.0, 1.0);
  const RangeAnswer a = pooled.QueryRange(region, 10.0);
  const RangeAnswer b = inlined.QueryRange(region, 10.0);
  EXPECT_EQ(a.must, b.must);
  EXPECT_EQ(a.may, b.may);
}

TEST_F(ShardedDatabaseTest, AutoSizedPoolLeavesOneShardToTheCaller) {
  // A fan-out over n shards hands work to at most n - 1 helpers: the
  // caller runs the rest.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t helpers = hw <= 1 ? 0 : hw - 1;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    ShardedModDatabaseOptions options;
    options.num_shards = shards;
    ShardedModDatabase db(&network_, options);
    EXPECT_EQ(db.num_query_threads(), std::min(shards - 1, helpers))
        << shards << " shards";
    ASSERT_TRUE(db.Insert(1, "a", Attr(street_, 100.0)).ok());
    ASSERT_TRUE(db.Insert(2, "b", Attr(street_, 120.0)).ok());
    const RangeAnswer answer = db.QueryRange(
        geo::Polygon::Rectangle(90.0, -1.0, 130.0, 1.0), 0.0);
    EXPECT_EQ(answer.must, (std::vector<core::ObjectId>{1, 2}));
  }
}

TEST_F(ShardedDatabaseTest, BulkInsertLoadsAllShardsAtomically) {
  ShardedModDatabase db(&network_, FourShards());
  std::vector<ShardedModDatabase::BulkObject> batch;
  for (core::ObjectId id = 0; id < 40; ++id) {
    batch.push_back({id, "b" + std::to_string(id), Attr(street_, 5.0 * id)});
  }
  ASSERT_TRUE(db.BulkInsert(std::move(batch)).ok());
  EXPECT_EQ(db.num_objects(), 40u);
  EXPECT_EQ(db.GetRecord(17)->label, "b17");

  // A bad row anywhere rolls back every shard.
  std::vector<ShardedModDatabase::BulkObject> bad_batch;
  for (core::ObjectId id = 100; id < 120; ++id) {
    bad_batch.push_back({id, "x", Attr(street_, 1.0)});
  }
  core::PositionAttribute bad = Attr(street_, 1.0);
  bad.route = 77;  // unknown route
  bad_batch.push_back({120, "bad", bad});
  EXPECT_FALSE(db.BulkInsert(std::move(bad_batch)).ok());
  EXPECT_EQ(db.num_objects(), 40u);  // unchanged

  // Cross-shard duplicate detection within one batch.
  std::vector<ShardedModDatabase::BulkObject> dup;
  dup.push_back({200, "a", Attr(street_, 1.0)});
  dup.push_back({200, "b", Attr(street_, 2.0)});
  EXPECT_EQ(db.BulkInsert(std::move(dup)).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(db.num_objects(), 40u);
}

TEST_F(ShardedDatabaseTest, ForEachRecordVisitsEveryObjectOnce) {
  ShardedModDatabase db(&network_, FourShards());
  for (core::ObjectId id = 0; id < 25; ++id) {
    ASSERT_TRUE(db.Insert(id, "", Attr(street_, 10.0 * (id % 30))).ok());
  }
  std::vector<core::ObjectId> seen;
  db.ForEachRecord(
      [&seen](const MovingObjectRecord& r) { seen.push_back(r.id); });
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 25u);
  for (core::ObjectId id = 0; id < 25; ++id) EXPECT_EQ(seen[id], id);
}

TEST_F(ShardedDatabaseTest, MetricsCountOperationsAndQueries) {
  ShardedModDatabase db(&network_, FourShards());
  for (core::ObjectId id = 0; id < 10; ++id) {
    ASSERT_TRUE(db.Insert(id, "", Attr(street_, 10.0 * id, 1.0)).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.ApplyUpdate(Update(i, 1.0, 10.0 * i + 1.0, 1.0)).ok());
  }
  const geo::Polygon region =
      geo::Polygon::Rectangle(0.0, -1.0, 200.0, 1.0);
  (void)db.QueryRange(region, 1.0);
  (void)db.QueryRange(region, 2.0);
  (void)db.QueryNearest({50.0, 0.0}, 3, 1.0);
  (void)db.QueryRangeInterval(region, 0.0, 5.0);

  EXPECT_EQ(db.metrics().GetCounter("mod.inserts")->value(), 10u);
  EXPECT_EQ(db.metrics().GetCounter("mod.updates_applied")->value(), 5u);
  EXPECT_EQ(db.metrics().GetCounter("sharded.queries_range")->value(), 2u);
  EXPECT_EQ(db.metrics().GetCounter("sharded.queries_nearest")->value(), 1u);
  EXPECT_EQ(db.metrics().GetCounter("sharded.queries_interval")->value(), 1u);
  // Each fan-out range query probes every shard's index once.
  EXPECT_GE(db.metrics().GetCounter("mod.index_probes")->value(),
            2u * db.num_shards());
  EXPECT_EQ(db.metrics().GetLatency("sharded.query_range")->count(), 2u);

  const std::string dump = db.DumpMetrics();
  EXPECT_NE(dump.find("counter mod.inserts 10"), std::string::npos);
  EXPECT_NE(dump.find("counter sharded.queries_range 2"), std::string::npos);
  EXPECT_NE(dump.find("latency sharded.query_range count=2"),
            std::string::npos);
  EXPECT_NE(dump.find("gauge sharded.num_shards 4"), std::string::npos);
}

TEST_F(ShardedDatabaseTest, SingleShardDegeneratesToPlainDatabase) {
  ShardedModDatabaseOptions options;
  options.num_shards = 1;
  options.num_query_threads = 0;
  ModDatabase single(&network_);
  ShardedModDatabase sharded(&network_, options);
  LoadIdenticalFleet(&single, &sharded, 30, 51);
  const geo::Polygon region =
      geo::Polygon::Rectangle(50.0, -5.0, 300.0, 35.0);
  const RangeAnswer a = single.QueryRange(region, 7.0);
  const RangeAnswer b = sharded.QueryRange(region, 7.0);
  EXPECT_EQ(a.must, b.must);
  EXPECT_EQ(a.may, b.may);
  EXPECT_EQ(a.candidates_examined, b.candidates_examined);
}

}  // namespace
}  // namespace modb::db
