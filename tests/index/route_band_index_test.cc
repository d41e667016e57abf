#include "index/route_band_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/uncertainty.h"
#include "delta_rows.h"
#include "geo/polygon.h"
#include "geo/route_network.h"
#include "util/rng.h"

namespace modb::index {
namespace {

class RouteBandIndexTest : public testing::Test {
 protected:
  RouteBandIndexTest() {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "street");
    bend_ = network_.AddRoute(
        geo::Polyline({{0.0, 20.0}, {60.0, 20.0}, {60.0, 80.0}}), "bend");
  }

  core::PositionAttribute Attr(geo::RouteId route, double s, double v,
                               core::Time t0 = 0.0,
                               core::TravelDirection dir =
                                   core::TravelDirection::kForward) const {
    core::PositionAttribute attr;
    attr.start_time = t0;
    attr.route = route;
    attr.start_route_distance = s;
    attr.start_position = network_.route(route).PointAt(s);
    attr.direction = dir;
    attr.speed = v;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  }

  static RouteBandIndex::Options Small() {
    RouteBandIndex::Options options;
    options.oplane.horizon = 60.0;
    options.rtree.max_entries = 4;  // a few levels even for small fleets
    options.rtree.min_entries = 2;
    return options;
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  geo::RouteId bend_ = geo::kInvalidRouteId;
};

TEST_F(RouteBandIndexTest, OneEntryPerObject) {
  RouteBandIndex index(&network_, Small());
  std::vector<core::PositionAttribute> attrs;
  for (core::ObjectId id = 0; id < 20; ++id) {
    attrs.push_back(Attr(id % 2 ? street_ : bend_,
                         static_cast<double>(id) * 3.0, 1.0));
    ASSERT_TRUE(UpsertRow(index, id, attrs.back()).ok());
  }
  EXPECT_EQ(index.num_objects(), 20u);
  EXPECT_EQ(index.num_entries(), 20u);
  for (core::ObjectId id = 0; id < 20; id += 3) {
    const core::PositionAttribute moved = Attr(street_, 50.0, 0.5, 2.0);
    ASSERT_TRUE(UpsertRow(index, id, moved, &attrs[id]).ok());
    attrs[id] = moved;
  }
  RemoveRow(index, 7, &attrs[7]);
  RemoveRow(index, 7);  // unknown ids are a no-op
  EXPECT_EQ(index.num_objects(), 19u);
  EXPECT_EQ(index.num_entries(), 19u);
  EXPECT_EQ(index.remove_misses(), 0u);
  EXPECT_TRUE(index.rtree().CheckInvariants().ok());
}

TEST_F(RouteBandIndexTest, BandPastTheFarEndIsFoundFromTheEndSegment) {
  RouteBandIndex index(&network_, Small());
  // At 1 unit/time from s = 90 the database position leaves the route at
  // t = 10; from then on the object waits at the end, (100, 0).
  ASSERT_TRUE(UpsertRow(index, 1, Attr(street_, 90.0, 1.0)).ok());
  EXPECT_GT(index.end_reach(), 40.0);
  const geo::Polygon end = geo::Polygon::Rectangle(99.0, -1.0, 101.0, 1.0);
  for (const double t : {12.0, 30.0, 60.0}) {
    EXPECT_EQ(index.Candidates(end, t), std::vector<core::ObjectId>{1})
        << "t=" << t;
  }
  // Away from the end, the band test is exact: by t = 30 the object has
  // left the middle of the route.
  const geo::Polygon middle = geo::Polygon::Rectangle(40.0, -1.0, 60.0, 1.0);
  EXPECT_TRUE(index.Candidates(middle, 30.0).empty());
  // Past the horizon end nothing is returned, as for the slab boxes.
  EXPECT_TRUE(index.Candidates(end, 61.0).empty());
  EXPECT_DOUBLE_EQ(index.CoverageEnd(Attr(street_, 90.0, 1.0)), 60.0);
}

TEST_F(RouteBandIndexTest, BackwardBandPastTheStartIsFound) {
  RouteBandIndex index(&network_, Small());
  // Backward along the bend from s = 80: off its start, (0, 20), from
  // t ≈ 53.3 on.
  ASSERT_TRUE(UpsertRow(index, 2,
                        Attr(bend_, 80.0, 1.5, 0.0,
                             core::TravelDirection::kBackward))
                  .ok());
  // A second object, elsewhere.
  ASSERT_TRUE(UpsertRow(index, 3, Attr(street_, 10.0, 0.2)).ok());
  const geo::Polygon start = geo::Polygon::Rectangle(-1.0, 19.0, 1.0, 21.0);
  EXPECT_TRUE(index.Candidates(start, 10.0).empty());
  EXPECT_EQ(index.Candidates(start, 59.0), std::vector<core::ObjectId>{2});
  // A window that ends after the object reached the start finds it too.
  EXPECT_EQ(index.CandidatesInWindow(start, 50.0, 75.0),
            std::vector<core::ObjectId>{2});
  EXPECT_EQ(index.CandidatesInWindow(start, 75.0, 50.0),
            std::vector<core::ObjectId>{2});
}

TEST_F(RouteBandIndexTest, BulkLoadAnswersAsIncrementalInserts) {
  RouteBandIndex incremental(&network_, Small());
  RouteBandIndex bulk(&network_, Small());
  util::Rng rng(5);
  std::vector<std::pair<core::ObjectId, core::PositionAttribute>> fleet;
  for (core::ObjectId id = 0; id < 300; ++id) {
    const geo::RouteId route = rng.Uniform(0.0, 1.0) < 0.5 ? street_ : bend_;
    const double length = network_.route(route).Length();
    fleet.emplace_back(
        id, Attr(route, rng.Uniform(0.0, length), rng.Uniform(0.0, 1.4),
                 rng.Uniform(0.0, 10.0),
                 rng.Uniform(0.0, 1.0) < 0.5
                     ? core::TravelDirection::kForward
                     : core::TravelDirection::kBackward));
    ASSERT_TRUE(UpsertRow(incremental, id, fleet.back().second).ok());
  }
  ASSERT_TRUE(bulk.BulkUpsert(fleet).ok());
  EXPECT_EQ(bulk.num_entries(), incremental.num_entries());
  EXPECT_EQ(bulk.end_reach(), incremental.end_reach());
  EXPECT_TRUE(bulk.rtree().CheckInvariants().ok());
  std::size_t found = 0;
  for (int q = 0; q < 200; ++q) {
    const double x = rng.Uniform(-10.0, 110.0);
    const double y = rng.Uniform(-10.0, 90.0);
    const geo::Polygon region = geo::Polygon::Rectangle(
        x, y, x + rng.Uniform(1.0, 30.0), y + rng.Uniform(1.0, 30.0));
    const double t1 = rng.Uniform(-5.0, 80.0);
    const double t2 = t1 + rng.Uniform(0.0, 10.0);
    const std::vector<core::ObjectId> at = bulk.Candidates(region, t1);
    EXPECT_EQ(at, incremental.Candidates(region, t1)) << "query " << q;
    const std::vector<core::ObjectId> window =
        bulk.CandidatesInWindow(region, t1, t2);
    EXPECT_EQ(window, incremental.CandidatesInWindow(region, t1, t2))
        << "query " << q;
    found += at.size() + window.size();
  }
  EXPECT_GT(found, 100u);
}

TEST_F(RouteBandIndexTest, CandidatesCoverEveryIntervalMeetingTheRegion) {
  // Soundness inside the horizon: every object whose uncertainty interval
  // meets the region is a candidate.
  RouteBandIndex index(&network_, Small());
  util::Rng rng(9);
  std::vector<core::PositionAttribute> attrs;
  for (core::ObjectId id = 0; id < 200; ++id) {
    const geo::RouteId route = id % 2 ? street_ : bend_;
    attrs.push_back(Attr(route,
                         rng.Uniform(0.0, network_.route(route).Length()),
                         rng.Uniform(0.0, 1.4), 0.0,
                         id % 3 ? core::TravelDirection::kForward
                                : core::TravelDirection::kBackward));
    ASSERT_TRUE(UpsertRow(index, id, attrs.back()).ok());
  }
  for (int q = 0; q < 300; ++q) {
    const double x = rng.Uniform(-5.0, 105.0);
    const double y = rng.Uniform(-5.0, 85.0);
    const geo::Polygon region =
        geo::Polygon::Rectangle(x, y, x + 8.0, y + 8.0);
    const double t = rng.Uniform(0.0, 60.0);
    const std::vector<core::ObjectId> ids = index.Candidates(region, t);
    for (core::ObjectId id = 0; id < attrs.size(); ++id) {
      const geo::Route& route = network_.route(attrs[id].route);
      const core::UncertaintyInterval iv =
          core::ComputeUncertainty(attrs[id], route, t);
      if (core::ClassifyAgainstPolygon(iv, route, region) ==
          core::RegionRelation::kOutside) {
        continue;
      }
      EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), id))
          << "object " << id << " missed at t=" << t;
    }
  }
}

TEST_F(RouteBandIndexTest, RoutesAddedAfterConstructionAreProbed) {
  RouteBandIndex index(&network_, Small());
  ASSERT_TRUE(UpsertRow(index, 1, Attr(street_, 50.0, 0.0)).ok());
  const geo::RouteId late =
      network_.AddStraightRoute({0.0, -50.0}, {100.0, -50.0}, "late");
  ASSERT_TRUE(UpsertRow(index, 2, Attr(late, 50.0, 0.0)).ok());
  const geo::Polygon around = geo::Polygon::Rectangle(45.0, -55.0, 55.0, 5.0);
  EXPECT_EQ(index.Candidates(around, 1.0),
            (std::vector<core::ObjectId>{1, 2}));
  core::PositionAttribute unknown = Attr(late, 1.0, 0.0);
  unknown.route = 99;
  EXPECT_EQ(UpsertRow(index, 3, unknown).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(index.num_objects(), 2u);
}

}  // namespace
}  // namespace modb::index
