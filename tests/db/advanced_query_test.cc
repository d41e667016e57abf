// Tests of the extended query forms: k-nearest-neighbour with
// uncertainty-aware distance brackets, bulk insertion, and time-window
// range queries (the future-time query family §4.2 enables).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "db/mod_database.h"
#include "db/sharded_database.h"
#include "db/subscription_engine.h"
#include "util/rng.h"

namespace modb::db {
namespace {

class AdvancedQueryTest : public testing::Test {
 protected:
  AdvancedQueryTest() {
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

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  geo::RouteId avenue_ = geo::kInvalidRouteId;
};

ShardedModDatabaseOptions FourShards() {
  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 2;
  return options;
}

TEST_F(AdvancedQueryTest, NearestOrdersByDatabaseDistance) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "near", Attr(street_, 100.0)).ok());
  ASSERT_TRUE(db.Insert(2, "mid", Attr(street_, 130.0)).ok());
  ASSERT_TRUE(db.Insert(3, "far", Attr(street_, 300.0)).ok());
  const NearestAnswer answer = db.QueryNearest({100.0, 0.0}, 2, 0.0);
  ASSERT_EQ(answer.items.size(), 2u);
  EXPECT_EQ(answer.items[0].id, 1u);
  EXPECT_DOUBLE_EQ(answer.items[0].db_distance, 0.0);
  EXPECT_EQ(answer.items[1].id, 2u);
  EXPECT_DOUBLE_EQ(answer.items[1].db_distance, 30.0);
}

TEST_F(AdvancedQueryTest, NearestDistanceBracketsCoverTruth) {
  ModDatabase db(&network_);
  // Parked at 100 with ail: at t=2 the interval is [100-0, 100+1.5*...];
  // parked speed 0 -> slow 0, fast = min(2C/t, 1.5t).
  ASSERT_TRUE(db.Insert(1, "p", Attr(street_, 100.0, 0.0)).ok());
  const NearestAnswer answer = db.QueryNearest({90.0, 0.0}, 1, 2.0);
  ASSERT_EQ(answer.items.size(), 1u);
  const auto& item = answer.items[0];
  EXPECT_DOUBLE_EQ(item.db_distance, 10.0);
  EXPECT_LE(item.min_possible_distance, item.db_distance);
  EXPECT_GE(item.max_possible_distance, item.db_distance);
  // fast bound at t=2: min(5, 3) = 3 -> interval [100, 103]:
  EXPECT_DOUBLE_EQ(item.min_possible_distance, 10.0);
  EXPECT_DOUBLE_EQ(item.max_possible_distance, 13.0);
}

TEST_F(AdvancedQueryTest, NearestFindsFringeObjects) {
  // An object just outside the first expanding probe must still beat a
  // candidate found early. Place many decoys far away and the winner at a
  // fringe position.
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "winner", Attr(street_, 210.0)).ok());
  for (core::ObjectId id = 2; id < 8; ++id) {
    ASSERT_TRUE(
        db.Insert(id, "decoy", Attr(street_, 250.0 + 10.0 * id)).ok());
  }
  const NearestAnswer answer = db.QueryNearest({200.0, 0.0}, 3, 0.0);
  ASSERT_GE(answer.items.size(), 3u);
  EXPECT_EQ(answer.items[0].id, 1u);
}

TEST_F(AdvancedQueryTest, NearestAcrossRoutes) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "on-street", Attr(street_, 100.0)).ok());
  ASSERT_TRUE(db.Insert(2, "on-avenue", Attr(avenue_, 100.0)).ok());
  // Query point between the parallel roads, slightly closer to the avenue.
  const NearestAnswer answer = db.QueryNearest({100.0, 20.0}, 2, 0.0);
  ASSERT_EQ(answer.items.size(), 2u);
  EXPECT_EQ(answer.items[0].id, 2u);
  EXPECT_DOUBLE_EQ(answer.items[0].db_distance, 10.0);
  EXPECT_DOUBLE_EQ(answer.items[1].db_distance, 20.0);
}

TEST_F(AdvancedQueryTest, NearestEdgeCases) {
  ModDatabase db(&network_);
  EXPECT_TRUE(db.QueryNearest({0.0, 0.0}, 3, 0.0).items.empty());
  ASSERT_TRUE(db.Insert(1, "only", Attr(street_, 10.0)).ok());
  EXPECT_TRUE(db.QueryNearest({0.0, 0.0}, 0, 0.0).items.empty());
  // k larger than the database: returns everything.
  const NearestAnswer all = db.QueryNearest({0.0, 0.0}, 10, 0.0);
  EXPECT_EQ(all.items.size(), 1u);
}

TEST_F(AdvancedQueryTest, NearestAgreesAcrossIndexKinds) {
  ModDatabaseOptions scan_opts;
  scan_opts.index_kind = IndexKind::kLinearScan;
  ModDatabase rtree_db(&network_);
  ModDatabase scan_db(&network_, scan_opts);
  util::Rng rng(3);
  for (core::ObjectId id = 0; id < 40; ++id) {
    const auto attr = Attr(id % 2 == 0 ? street_ : avenue_,
                           rng.Uniform(0.0, 350.0), rng.Uniform(0.0, 1.2));
    ASSERT_TRUE(rtree_db.Insert(id, "", attr).ok());
    ASSERT_TRUE(scan_db.Insert(id, "", attr).ok());
  }
  for (int q = 0; q < 20; ++q) {
    const geo::Point2 p{rng.Uniform(0.0, 400.0), rng.Uniform(-10.0, 40.0)};
    const core::Time t = rng.Uniform(0.0, 30.0);
    const NearestAnswer a = rtree_db.QueryNearest(p, 5, t);
    const NearestAnswer b = scan_db.QueryNearest(p, 5, t);
    ASSERT_EQ(a.items.size(), b.items.size()) << q;
    for (std::size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].id, b.items[i].id) << q << " item " << i;
      EXPECT_NEAR(a.items[i].db_distance, b.items[i].db_distance, 1e-9);
    }
  }
}

TEST_F(AdvancedQueryTest, BulkInsertMatchesIndividualInserts) {
  ModDatabase bulk_db(&network_);
  ModDatabase one_db(&network_);
  std::vector<ModDatabase::BulkObject> batch;
  util::Rng rng(9);
  for (core::ObjectId id = 0; id < 50; ++id) {
    ModDatabase::BulkObject object;
    object.id = id;
    object.label = "o" + std::to_string(id);
    object.attr = Attr(street_, rng.Uniform(0.0, 390.0), rng.Uniform(0.0, 1.0));
    ASSERT_TRUE(one_db.Insert(id, object.label, object.attr).ok());
    batch.push_back(std::move(object));
  }
  ASSERT_TRUE(bulk_db.BulkInsert(std::move(batch)).ok());
  EXPECT_EQ(bulk_db.num_objects(), 50u);
  for (double t : {0.0, 10.0, 40.0}) {
    const geo::Polygon region =
        geo::Polygon::Rectangle(100.0, -1.0, 250.0, 1.0);
    const RangeAnswer a = bulk_db.QueryRange(region, t);
    const RangeAnswer b = one_db.QueryRange(region, t);
    EXPECT_EQ(a.must, b.must) << t;
    EXPECT_EQ(a.may, b.may) << t;
  }
}

TEST_F(AdvancedQueryTest, BulkInsertValidatesAtomically) {
  ModDatabase db(&network_);
  std::vector<ModDatabase::BulkObject> batch;
  batch.push_back({1, "ok", Attr(street_, 10.0)});
  core::PositionAttribute bad = Attr(street_, 10.0);
  bad.route = 99;  // unknown route
  batch.push_back({2, "bad", bad});
  EXPECT_FALSE(db.BulkInsert(std::move(batch)).ok());
  EXPECT_EQ(db.num_objects(), 0u);  // unchanged

  std::vector<ModDatabase::BulkObject> dup;
  dup.push_back({1, "a", Attr(street_, 10.0)});
  dup.push_back({1, "b", Attr(street_, 20.0)});
  EXPECT_EQ(db.BulkInsert(std::move(dup)).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(db.num_objects(), 0u);
}

TEST_F(AdvancedQueryTest, IntervalQueryCatchesPassingObject) {
  ModDatabase db(&network_);
  // Drives through [200, 210] somewhere around t = 100 (speed 1 from 100).
  ASSERT_TRUE(db.Insert(1, "mover", Attr(street_, 100.0, 1.0)).ok());
  const geo::Polygon region =
      geo::Polygon::Rectangle(200.0, -1.0, 210.0, 1.0);
  // At no sampled single instant before t=50 is it inside...
  EXPECT_TRUE(db.QueryRange(region, 20.0).may.empty());
  // ...but over the window [50, 150] it must pass through.
  const IntervalRangeAnswer over = db.QueryRangeInterval(region, 50.0, 150.0);
  ASSERT_EQ(over.may.size(), 1u);
  EXPECT_EQ(over.may[0], 1u);
  // A window that ends before arrival sees nothing.
  const IntervalRangeAnswer before = db.QueryRangeInterval(region, 0.0, 30.0);
  EXPECT_TRUE(before.may.empty());
}

TEST_F(AdvancedQueryTest, IntervalQueryMustAtSomeTime) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "mover", Attr(street_, 100.0, 1.0)).ok());
  // A wide region the object sits deep inside around t=100.
  const geo::Polygon wide = geo::Polygon::Rectangle(150.0, -1.0, 260.0, 1.0);
  const IntervalRangeAnswer answer =
      db.QueryRangeInterval(wide, 80.0, 120.0, 1.0);
  ASSERT_EQ(answer.may.size(), 1u);
  ASSERT_EQ(answer.must_at_some_time.size(), 1u);
  EXPECT_EQ(answer.must_at_some_time[0], 1u);
}

TEST_F(AdvancedQueryTest, IntervalQueryAgreesAcrossIndexKinds) {
  ModDatabaseOptions rtree_opts;
  rtree_opts.oplane_horizon = 200.0;
  ModDatabaseOptions scan_opts;
  scan_opts.index_kind = IndexKind::kLinearScan;
  ModDatabase rtree_db(&network_, rtree_opts);
  ModDatabase scan_db(&network_, scan_opts);
  util::Rng rng(21);
  for (core::ObjectId id = 0; id < 30; ++id) {
    const auto attr = Attr(id % 2 == 0 ? street_ : avenue_,
                           rng.Uniform(0.0, 200.0), rng.Uniform(0.2, 1.2));
    ASSERT_TRUE(rtree_db.Insert(id, "", attr).ok());
    ASSERT_TRUE(scan_db.Insert(id, "", attr).ok());
  }
  for (int q = 0; q < 15; ++q) {
    const double x0 = rng.Uniform(0.0, 350.0);
    const geo::Polygon region =
        geo::Polygon::Rectangle(x0, -5.0, x0 + 30.0, 35.0);
    const double t1 = rng.Uniform(0.0, 80.0);
    const double t2 = t1 + rng.Uniform(1.0, 60.0);
    const IntervalRangeAnswer a = rtree_db.QueryRangeInterval(region, t1, t2);
    const IntervalRangeAnswer b = scan_db.QueryRangeInterval(region, t1, t2);
    EXPECT_EQ(a.may, b.may) << "q=" << q;
    EXPECT_EQ(a.must_at_some_time, b.must_at_some_time) << "q=" << q;
  }
}

TEST_F(AdvancedQueryTest, IntervalQuerySamplesWindowEndEdge) {
  // Regression: with sample_step > t2 - t1 the MUST loop used to stop
  // after sampling t1, dropping an object that is provably inside only at
  // the t2 edge.
  ModDatabase db(&network_);
  // Speed 1 from 100: deep inside [195, 215] only around t = 105.
  ASSERT_TRUE(db.Insert(1, "edge", Attr(street_, 100.0, 1.0)).ok());
  const geo::Polygon region =
      geo::Polygon::Rectangle(195.0, -1.0, 215.0, 1.0);
  // Sanity: at t=105 the object MUST be in the region...
  ASSERT_EQ(db.QueryRange(region, 105.0).must.size(), 1u);
  // ...and t=105 is the *end* of the window, with a step far larger than
  // the window: the edge sample is the only chance to detect MUST.
  const IntervalRangeAnswer answer =
      db.QueryRangeInterval(region, 95.0, 105.0, 1000.0);
  ASSERT_EQ(answer.may.size(), 1u);
  ASSERT_EQ(answer.must_at_some_time.size(), 1u) << "t2 edge not sampled";
  EXPECT_EQ(answer.must_at_some_time[0], 1u);
}

TEST_F(AdvancedQueryTest, IntervalQueryZeroLengthWindow) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "still", Attr(street_, 100.0, 1.0)).ok());
  const geo::Polygon region =
      geo::Polygon::Rectangle(150.0, -1.0, 250.0, 1.0);
  const IntervalRangeAnswer answer =
      db.QueryRangeInterval(region, 100.0, 100.0, 5.0);
  ASSERT_EQ(answer.may.size(), 1u);
  EXPECT_EQ(answer.must_at_some_time.size(), 1u);
}

TEST_F(AdvancedQueryTest, NearestAccumulatesCandidatesAcrossProbes) {
  // Regression: candidates_examined was overwritten by each expanding
  // probe, under-reporting the refinement work actually done.
  ModDatabase db(&network_);
  ShardedModDatabase sharded(&network_, FourShards());
  // One object near the query point (found by an early small probe) and a
  // cluster far away, so reaching k = 2 takes several doublings that each
  // re-examine the near object.
  for (const ModDatabase::BulkObject& object :
       std::vector<ModDatabase::BulkObject>{{1, "near", Attr(street_, 10.0)},
                                            {2, "far", Attr(street_, 390.0)}}) {
    ASSERT_TRUE(db.Insert(object.id, object.label, object.attr).ok());
    ASSERT_TRUE(sharded.Insert(object.id, object.label, object.attr).ok());
  }
  const NearestAnswer answer = db.QueryNearest({10.0, 0.0}, 2, 0.0);
  ASSERT_EQ(answer.items.size(), 2u);
  // The near object is a candidate of every probe radius that contains it;
  // the total must exceed the final probe's yield of 2.
  EXPECT_GT(answer.candidates_examined, 2u);
  // The sharded store's rounds accumulate the same way, over every shard.
  const NearestAnswer across = sharded.QueryNearest({10.0, 0.0}, 2, 0.0);
  ASSERT_EQ(across.items.size(), 2u);
  EXPECT_EQ(across.candidates_examined, answer.candidates_examined);
}

TEST_F(AdvancedQueryTest, NearestWidensPastFilteredCandidates) {
  // The probe loop must expand until k *surviving* items are found, not k
  // raw candidates: refinement may drop candidates (stale index entries,
  // unknown routes), and stopping on the raw count could return fewer
  // than k while closer objects sit outside the probe. With the built-in
  // indexes the raw and surviving counts coincide, so this doubles as an
  // ordering sanity check over a spread-out fleet, in one store and in a
  // sharded one (`ShardedNearestWidensPastOneShardsLateModels` drops
  // candidates in refinement).
  ModDatabase db(&network_);
  ShardedModDatabase sharded(&network_, FourShards());
  for (const ModDatabase::BulkObject& object :
       std::vector<ModDatabase::BulkObject>{
           {1, "close", Attr(street_, 40.0)},
           {2, "mid", Attr(street_, 120.0)},
           {3, "far", Attr(street_, 360.0)}}) {
    ASSERT_TRUE(db.Insert(object.id, object.label, object.attr).ok());
    ASSERT_TRUE(sharded.Insert(object.id, object.label, object.attr).ok());
  }
  for (const NearestAnswer& baseline :
       {db.QueryNearest({40.0, 0.0}, 3, 0.0),
        sharded.QueryNearest({40.0, 0.0}, 3, 0.0)}) {
    ASSERT_EQ(baseline.items.size(), 3u);
    EXPECT_EQ(baseline.items[0].id, 1u);
    EXPECT_EQ(baseline.items[1].id, 2u);
    EXPECT_EQ(baseline.items[2].id, 3u);
  }
}

TEST_F(AdvancedQueryTest, ShardedNearestWidensPastOneShardsLateModels) {
  // A linear scan also returns objects whose model starts after the query
  // time (it extrapolates them backwards), and refinement drops them.
  // Here those are the objects nearest the query point, all on one shard,
  // so that shard's lists come back short; the store must count the
  // survivors and widen past the late ones to the k-th survivor's
  // distance, exactly as a ModDatabase does.
  ModDatabaseOptions scan;
  scan.index_kind = IndexKind::kLinearScan;
  ModDatabase db(&network_, scan);
  ShardedModDatabaseOptions options = FourShards();
  options.db = scan;
  ShardedModDatabase sharded(&network_, options);
  std::vector<core::ObjectId> late;
  for (core::ObjectId id = 0; id < 40; ++id) {
    core::PositionAttribute attr;
    if (sharded.ShardOf(id) == 0 && late.size() < 4) {
      // Within 4 units of the query point, from t = 10 on.
      attr = Attr(street_, 200.0 + static_cast<double>(late.size()));
      attr.start_time = 10.0;
      late.push_back(id);
    } else {
      attr = Attr(id % 2 == 0 ? street_ : avenue_, 5.0 + 9.0 * id);
    }
    ASSERT_TRUE(db.Insert(id, "o", attr).ok());
    ASSERT_TRUE(sharded.Insert(id, "o", attr).ok());
  }
  ASSERT_EQ(late.size(), 4u);
  const NearestAnswer want = db.QueryNearest({200.0, 0.0}, 3, 5.0);
  const NearestAnswer got = sharded.QueryNearest({200.0, 0.0}, 3, 5.0);
  ASSERT_EQ(want.items.size(), 3u);
  ASSERT_EQ(got.items.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got.items[i].id, want.items[i].id) << i;
    EXPECT_EQ(got.items[i].db_distance, want.items[i].db_distance) << i;
    EXPECT_EQ(std::count(late.begin(), late.end(), got.items[i].id), 0) << i;
  }
  // The k-th survivor lies beyond the first square (half-width 401 / 64),
  // so both stores widened, through the same squares.
  EXPECT_GT(want.items[2].db_distance, 401.0 / 64.0);
  EXPECT_EQ(got.candidates_examined, want.candidates_examined);
}

// The search loop alone, driven by scripted rounds. The network box spans
// 640 units, so the first square's half-width is 10, and from (0, 0) a
// half-width of 640 covers it.
class SearchNearestTest : public testing::Test {
 protected:
  /// Runs the search for k = 3; `script(half)` gives each round's items
  /// (every round examines 5 candidates). Records the half-widths.
  NearestAnswer Search(
      const std::function<std::vector<NearestAnswer::Item>(double)>& script,
      bool any_objects = true) {
    return SearchNearest(box_, {0.0, 0.0}, 3,
                         [&](double half, NearestAnswer* found) {
                           halves_.push_back(half);
                           found->items = script(half);
                           found->candidates_examined = 5;
                           return any_objects;
                         });
  }

  /// `n` items, the last at `last` and the others nearer.
  static std::vector<NearestAnswer::Item> Items(std::size_t n, double last) {
    std::vector<NearestAnswer::Item> items(n);
    for (std::size_t i = 0; i < n; ++i) {
      items[i].id = i;
      items[i].db_distance = last - static_cast<double>(n - 1 - i) * 1e-3;
    }
    return items;
  }

  const geo::Box2 box_{geo::Point2{0.0, 0.0}, geo::Point2{639.0, 100.0}};
  std::vector<double> halves_;
};

TEST_F(SearchNearestTest, StopsAfterARoundWithoutObjects) {
  const NearestAnswer answer =
      Search([](double) { return Items(0, 0.0); }, false);
  EXPECT_EQ(halves_, (std::vector<double>{10.0}));
  EXPECT_TRUE(answer.items.empty());
}

TEST_F(SearchNearestTest, StopsOnceTheKthItemIsInsideTheSquare) {
  const NearestAnswer answer = Search([](double) { return Items(3, 9.0); });
  EXPECT_EQ(halves_, (std::vector<double>{10.0}));
  EXPECT_EQ(answer.items.size(), 3u);
  EXPECT_EQ(answer.candidates_examined, 5u);
}

TEST_F(SearchNearestTest, DoublesUntilTheSquareCoversTheNetwork) {
  const NearestAnswer answer = Search([](double) { return Items(2, 1.0); });
  EXPECT_EQ(halves_, (std::vector<double>{10.0, 20.0, 40.0, 80.0, 160.0,
                                          320.0, 640.0}));
  EXPECT_EQ(answer.items.size(), 2u);
  EXPECT_EQ(answer.candidates_examined, 35u);
}

TEST_F(SearchNearestTest, WidensToTheKthDistanceOnce) {
  // Found at 10 with the k-th at 25: one round at 25 holds it.
  Search([](double half) { return Items(3, half < 25.0 ? 25.0 : 24.0); });
  EXPECT_EQ(halves_, (std::vector<double>{10.0, 25.0}));
}

TEST_F(SearchNearestTest, EndsAtOnceForAPointThatIsNotFinite) {
  SearchNearest(box_, {std::nan(""), 0.0}, 3,
                [&](double half, NearestAnswer*) {
                  halves_.push_back(half);
                  return true;
                });
  EXPECT_EQ(halves_, (std::vector<double>{10.0}));
}

TEST_F(SearchNearestTest, RacingRoundsGrowAtLeastTwofoldAfterAWiden) {
  // Writes that keep moving the k-th item just outside each square: after
  // the first widen every round at least doubles, so the search ends
  // within log2(640 / 10) + 2 rounds instead of creeping outwards.
  Search([](double half) { return Items(3, half + 1.0); });
  EXPECT_EQ(halves_, (std::vector<double>{10.0, 11.0, 22.0, 44.0, 88.0,
                                          176.0, 352.0, 704.0}));
}

TEST_F(AdvancedQueryTest, IntervalQuerySwapsReversedWindow) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "x", Attr(street_, 100.0, 1.0)).ok());
  const geo::Polygon region =
      geo::Polygon::Rectangle(90.0, -1.0, 160.0, 1.0);
  const IntervalRangeAnswer a = db.QueryRangeInterval(region, 40.0, 10.0);
  EXPECT_EQ(a.window_start, 10.0);
  EXPECT_EQ(a.window_end, 40.0);
  EXPECT_EQ(a.may.size(), 1u);
}

// The index kinds the identity tests hold to the same answers.
constexpr IndexKind kAllKinds[] = {IndexKind::kTimeSpaceRTree,
                                   IndexKind::kLinearScan,
                                   IndexKind::kRouteBand};

TEST(QueryCoverageTest, NoAnswerBeforeTheModelStarts) {
  // One ail object whose model starts at t = 10 at s = 50, moving at 1.
  // Extrapolated backwards it would pass G = [44, 46] at t ≈ 5, but the
  // model covers no time before its start, and no index returns it there.
  geo::RouteNetwork network;
  const geo::RouteId route =
      network.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "r");
  core::PositionAttribute attr;
  attr.start_time = 10.0;
  attr.route = route;
  attr.start_route_distance = 50.0;
  attr.start_position = {50.0, 0.0};
  attr.speed = 1.0;
  attr.update_cost = 5.0;
  attr.max_speed = 1.5;
  attr.policy = core::PolicyKind::kAverageImmediateLinear;
  const geo::Polygon region = geo::Polygon::Rectangle(44.0, -1.0, 46.0, 1.0);
  for (const IndexKind kind : kAllKinds) {
    ModDatabaseOptions options;
    options.index_kind = kind;
    ModDatabase db(&network, options);
    ASSERT_TRUE(db.Insert(1, "late", attr).ok());
    const RangeAnswer at = db.QueryRange(region, 5.0);
    EXPECT_TRUE(at.must.empty()) << static_cast<int>(kind);
    EXPECT_TRUE(at.may.empty()) << static_cast<int>(kind);
    // The window is refined only over [10, 11], where the object is past G.
    const IntervalRangeAnswer window = db.QueryRangeInterval(region, 4.0, 11.0);
    EXPECT_TRUE(window.may.empty()) << static_cast<int>(kind);
    EXPECT_TRUE(window.must_at_some_time.empty()) << static_cast<int>(kind);
    EXPECT_TRUE(db.QueryNearest({45.0, 0.0}, 1, 5.0).items.empty())
        << static_cast<int>(kind);
    // From its start on, every kind answers it.
    EXPECT_EQ(db.QueryNearest({45.0, 0.0}, 1, 10.0).items.size(), 1u)
        << static_cast<int>(kind);
  }
}

TEST(QueryCoverageTest, NearestFromOutsideTheNetworkBoxReturnsK) {
  // From (150, 0) the square that covers the network span around the
  // point stops at x = 49, short of the object at s = 10: the expansion
  // has to reach the farthest corner of the network box.
  geo::RouteNetwork network;
  const geo::RouteId route =
      network.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "r");
  core::PositionAttribute attr;
  attr.route = route;
  attr.speed = 0.0;
  attr.update_cost = 5.0;
  attr.max_speed = 1.5;
  attr.policy = core::PolicyKind::kAverageImmediateLinear;
  for (const IndexKind kind : kAllKinds) {
    ModDatabaseOptions options;
    options.index_kind = kind;
    ModDatabase db(&network, options);
    for (const double s : {100.0, 10.0}) {
      attr.start_route_distance = s;
      attr.start_position = {s, 0.0};
      ASSERT_TRUE(db.Insert(static_cast<core::ObjectId>(s), "", attr).ok());
    }
    const NearestAnswer answer = db.QueryNearest({150.0, 0.0}, 2, 1.0);
    ASSERT_EQ(answer.items.size(), 2u) << static_cast<int>(kind);
    EXPECT_EQ(answer.items[0].id, 100u);
    EXPECT_EQ(answer.items[1].id, 10u);
    EXPECT_DOUBLE_EQ(answer.items[1].db_distance, 140.0);
  }
}

// One ail object (speed 1, V 1.5, C 5) on a 100-unit route, starting at
// s = 40 at time `start`, and G = [42, 44] x [-1, 1]: over [start,
// start + 10] it passes G, but its interval never lies inside G.
core::PositionAttribute PassingObjectAt(geo::RouteId route, core::Time start) {
  core::PositionAttribute attr;
  attr.start_time = start;
  attr.route = route;
  attr.start_route_distance = 40.0;
  attr.start_position = {40.0, 0.0};
  attr.speed = 1.0;
  attr.update_cost = 5.0;
  attr.max_speed = 1.5;
  attr.policy = core::PolicyKind::kAverageImmediateLinear;
  return attr;
}

TEST(IntervalSamplerTest, EndsWhenTheStepNoLongerAdvancesTime) {
  // From about 1e16 on, t + 1 rounds back to t; the sampler must still
  // reach the window end and stop.
  geo::RouteNetwork network;
  const geo::RouteId route =
      network.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "r");
  const geo::Polygon region = geo::Polygon::Rectangle(42.0, -1.0, 44.0, 1.0);
  for (const core::Time start : {10.0, 1e15, 1e16, 2e16, 1e17}) {
    for (const IndexKind kind : kAllKinds) {
      ModDatabaseOptions options;
      options.index_kind = kind;
      ModDatabase db(&network, options);
      ASSERT_TRUE(db.Insert(1, "", PassingObjectAt(route, start)).ok());
      const IntervalRangeAnswer answer =
          db.QueryRangeInterval(region, start, start + 10.0);
      EXPECT_EQ(answer.may, std::vector<core::ObjectId>{1})
          << start << " kind " << static_cast<int>(kind);
      EXPECT_TRUE(answer.must_at_some_time.empty())
          << start << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(IntervalSamplerTest, DuringSubscriptionInsertEndsAtHugeTimes) {
  // The same object meets a DURING subscription inside the write path.
  geo::RouteNetwork network;
  const geo::RouteId route =
      network.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "r");
  for (const core::Time start : {1e16, 1e17}) {
    SubscriptionEngine engine(&network);
    SubscriptionSpec spec;
    spec.region = geo::Polygon::Rectangle(42.0, -1.0, 44.0, 1.0);
    spec.windowed = true;
    spec.time = start;
    spec.window_end = start + 10.0;
    ASSERT_TRUE(engine.Subscribe(7, spec).ok());
    ModDatabase db(&network);
    db.AttachSubscriptions(&engine);
    ASSERT_TRUE(db.Insert(1, "", PassingObjectAt(route, start)).ok());
    EXPECT_EQ(engine.RelationOf(7, 1), core::RegionRelation::kMayBeIn)
        << start;
  }
}

}  // namespace
}  // namespace modb::db
