#include "db/mod_database.h"

#include <gtest/gtest.h>

#include <cmath>

namespace modb::db {
namespace {

class ModDatabaseTest : public testing::Test {
 protected:
  ModDatabaseTest() {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {200.0, 0.0}, "main-st");
    avenue_ = network_.AddStraightRoute({50.0, -100.0}, {50.0, 100.0}, "ave");
  }

  core::PositionAttribute Attr(double start, double speed,
                               core::Time t0 = 0.0) const {
    core::PositionAttribute attr;
    attr.start_time = t0;
    attr.route = street_;
    attr.start_route_distance = start;
    attr.start_position = {start, 0.0};
    attr.speed = speed;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  }

  core::PositionUpdate Update(core::ObjectId id, core::Time t, double s,
                              double speed) const {
    core::PositionUpdate u;
    u.object = id;
    u.time = t;
    u.route = street_;
    u.route_distance = s;
    u.position = {s, 0.0};
    u.direction = core::TravelDirection::kForward;
    u.speed = speed;
    return u;
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  geo::RouteId avenue_ = geo::kInvalidRouteId;
};

TEST_F(ModDatabaseTest, InsertAndGet) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "cab-1", Attr(10.0, 1.0)).ok());
  EXPECT_EQ(db.num_objects(), 1u);
  const auto rec = db.Get(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->label, "cab-1");
  EXPECT_EQ((*rec)->update_count, 0u);
}

TEST_F(ModDatabaseTest, InsertRejectsDuplicates) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "a", Attr(0.0, 1.0)).ok());
  const util::Status dup = db.Insert(1, "b", Attr(0.0, 1.0));
  EXPECT_EQ(dup.code(), util::StatusCode::kAlreadyExists);
}

TEST_F(ModDatabaseTest, InsertValidatesAttribute) {
  ModDatabase db(&network_);
  core::PositionAttribute bad_route = Attr(0.0, 1.0);
  bad_route.route = 99;
  EXPECT_EQ(db.Insert(1, "x", bad_route).code(),
            util::StatusCode::kNotFound);
  core::PositionAttribute bad_speed = Attr(0.0, -1.0);
  EXPECT_EQ(db.Insert(2, "x", bad_speed).code(),
            util::StatusCode::kInvalidArgument);
  core::PositionAttribute off_route = Attr(500.0, 1.0);
  EXPECT_EQ(db.Insert(3, "x", off_route).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(ModDatabaseTest, QueryPositionExtrapolates) {
  // Paper §1: the DBMS answers position queries from the motion model
  // without any update traffic.
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "cab", Attr(10.0, 2.0)).ok());
  const auto answer = db.QueryPosition(1, 5.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer->route_distance, 20.0);
  EXPECT_TRUE(geo::ApproxEqual(answer->position, {20.0, 0.0}));
  EXPECT_EQ(answer->route, street_);
}

TEST_F(ModDatabaseTest, QueryPositionCarriesBounds) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "cab", Attr(10.0, 1.0)).ok());
  const auto answer = db.QueryPosition(1, 2.0);
  ASSERT_TRUE(answer.ok());
  // ail bounds at t=2: slow = min(2C/t, vt) = min(5, 2) = 2;
  // fast = min(5, 0.5*2) = 1.
  EXPECT_DOUBLE_EQ(answer->slow_bound, 2.0);
  EXPECT_DOUBLE_EQ(answer->fast_bound, 1.0);
  EXPECT_DOUBLE_EQ(answer->deviation_bound, 2.0);
  EXPECT_DOUBLE_EQ(answer->uncertainty.lo, 10.0);
  EXPECT_DOUBLE_EQ(answer->uncertainty.hi, 13.0);
}

TEST_F(ModDatabaseTest, QueryPositionUnknownObject) {
  ModDatabase db(&network_);
  EXPECT_EQ(db.QueryPosition(5, 0.0).status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(ModDatabaseTest, ApplyUpdateMovesObject) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "cab", Attr(10.0, 1.0)).ok());
  ASSERT_TRUE(db.ApplyUpdate(Update(1, 10.0, 30.0, 0.5)).ok());
  const auto rec = db.Get(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->update_count, 1u);
  EXPECT_DOUBLE_EQ((*rec)->attr.start_time, 10.0);
  EXPECT_DOUBLE_EQ((*rec)->attr.speed, 0.5);
  // Policy parameters survive updates.
  EXPECT_EQ((*rec)->attr.policy, core::PolicyKind::kAverageImmediateLinear);
  EXPECT_DOUBLE_EQ((*rec)->attr.update_cost, 5.0);
  const auto answer = db.QueryPosition(1, 12.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer->route_distance, 31.0);
}

TEST_F(ModDatabaseTest, ApplyUpdateValidation) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "cab", Attr(10.0, 1.0, 5.0)).ok());
  EXPECT_EQ(db.ApplyUpdate(Update(9, 10.0, 0.0, 1.0)).code(),
            util::StatusCode::kNotFound);
  // Time regression.
  EXPECT_EQ(db.ApplyUpdate(Update(1, 2.0, 0.0, 1.0)).code(),
            util::StatusCode::kInvalidArgument);
  // Unknown route.
  core::PositionUpdate bad = Update(1, 10.0, 0.0, 1.0);
  bad.route = 99;
  EXPECT_EQ(db.ApplyUpdate(bad).code(), util::StatusCode::kNotFound);
}

TEST_F(ModDatabaseTest, RouteChangeUpdate) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "cab", Attr(50.0, 1.0)).ok());
  core::PositionUpdate turn = Update(1, 10.0, 100.0, 1.0);
  turn.route = avenue_;  // turn onto the avenue at its midpoint
  turn.position = {50.0, 0.0};
  ASSERT_TRUE(db.ApplyUpdate(turn).ok());
  const auto answer = db.QueryPosition(1, 20.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->route, avenue_);
  EXPECT_TRUE(geo::ApproxEqual(answer->position, {50.0, 10.0}));
}

TEST_F(ModDatabaseTest, UpdatesAreLogged) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "cab", Attr(10.0, 1.0)).ok());
  ASSERT_TRUE(db.ApplyUpdate(Update(1, 5.0, 15.0, 1.0)).ok());
  ASSERT_TRUE(db.ApplyUpdate(Update(1, 9.0, 19.0, 1.1)).ok());
  // A rejected update (unknown object) is not counted.
  EXPECT_FALSE(db.ApplyUpdate(Update(2, 9.0, 19.0, 1.1)).ok());
  EXPECT_EQ(db.total_updates(), 2u);
  const auto rec = db.Get(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->update_count, 2u);
  EXPECT_DOUBLE_EQ((*rec)->attr.speed, 1.1);
}

TEST_F(ModDatabaseTest, EraseRemovesObject) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "cab", Attr(10.0, 1.0)).ok());
  ASSERT_TRUE(db.Erase(1).ok());
  EXPECT_EQ(db.num_objects(), 0u);
  EXPECT_EQ(db.Erase(1).code(), util::StatusCode::kNotFound);
  EXPECT_FALSE(db.QueryPosition(1, 0.0).ok());
}

TEST_F(ModDatabaseTest, RangeQueryMustMaySemantics) {
  ModDatabase db(&network_);
  // Object 1 near x=10 (inside region with its whole uncertainty interval),
  // object 2 parked at x=120 (outside), object 3 near the region edge (may).
  ASSERT_TRUE(db.Insert(1, "in", Attr(10.0, 0.0)).ok());
  ASSERT_TRUE(db.Insert(2, "out", Attr(120.0, 0.0)).ok());
  ASSERT_TRUE(db.Insert(3, "edge", Attr(39.8, 1.0)).ok());
  const geo::Polygon region = geo::Polygon::Rectangle(0.0, -5.0, 40.0, 5.0);
  const RangeAnswer answer = db.QueryRange(region, 1.0);
  ASSERT_EQ(answer.must.size(), 1u);
  EXPECT_EQ(answer.must[0], 1u);
  ASSERT_EQ(answer.may.size(), 1u);
  EXPECT_EQ(answer.may[0], 3u);
  EXPECT_GE(answer.candidates_examined, 2u);
}

TEST_F(ModDatabaseTest, RangeQueryAgreesAcrossIndexKinds) {
  // The refined MUST / MAY answers must be identical whichever access
  // method produced the candidates — the linear scan is ground truth.
  ModDatabaseOptions rtree_opts;
  rtree_opts.index_kind = IndexKind::kTimeSpaceRTree;
  ModDatabaseOptions scan_opts;
  scan_opts.index_kind = IndexKind::kLinearScan;
  ModDatabaseOptions route_opts;
  route_opts.index_kind = IndexKind::kRouteBand;
  ModDatabase rtree_db(&network_, rtree_opts);
  ModDatabase scan_db(&network_, scan_opts);
  ModDatabase route_db(&network_, route_opts);
  for (core::ObjectId id = 0; id < 30; ++id) {
    const double speed = 0.2 + 0.04 * static_cast<double>(id);
    const auto attr = Attr(static_cast<double>(id) * 6.0, speed);
    ASSERT_TRUE(rtree_db.Insert(id, "", attr).ok());
    ASSERT_TRUE(scan_db.Insert(id, "", attr).ok());
    ASSERT_TRUE(route_db.Insert(id, "", attr).ok());
  }
  for (double t : {0.0, 5.0, 20.0, 60.0}) {
    const geo::Polygon region =
        geo::Polygon::Rectangle(30.0, -1.0, 90.0, 1.0);
    const RangeAnswer truth = scan_db.QueryRange(region, t);
    const RangeAnswer a = rtree_db.QueryRange(region, t);
    const RangeAnswer b = route_db.QueryRange(region, t);
    EXPECT_EQ(a.must, truth.must) << "t=" << t;
    EXPECT_EQ(a.may, truth.may) << "t=" << t;
    EXPECT_EQ(b.must, truth.must) << "t=" << t;
    EXPECT_EQ(b.may, truth.may) << "t=" << t;
  }
}

TEST_F(ModDatabaseTest, MustSetIsAlwaysActuallyInside) {
  // Theorem 6 semantics: a MUST object's entire uncertainty interval lies
  // in the polygon, so the database position itself must be inside.
  ModDatabase db(&network_);
  for (core::ObjectId id = 0; id < 20; ++id) {
    ASSERT_TRUE(db.Insert(id, "", Attr(static_cast<double>(id) * 10.0, 1.0))
                    .ok());
  }
  const geo::Polygon region = geo::Polygon::Rectangle(25.0, -2.0, 95.0, 2.0);
  const RangeAnswer answer = db.QueryRange(region, 3.0);
  for (core::ObjectId id : answer.must) {
    const auto pos = db.QueryPosition(id, 3.0);
    ASSERT_TRUE(pos.ok());
    EXPECT_TRUE(region.Contains(pos->position)) << "object " << id;
  }
}

TEST_F(ModDatabaseTest, OptionsArePlumbedThrough) {
  ModDatabaseOptions options;
  options.index_kind = IndexKind::kLinearScan;
  ModDatabase db(&network_, options);
  EXPECT_EQ(db.object_index().name(), "scan");
  EXPECT_EQ(&db.network(), &network_);
}

}  // namespace
}  // namespace modb::db
