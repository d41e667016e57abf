#include "index/timespace_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "index/linear_scan_index.h"
#include "util/rng.h"

namespace modb::index {
namespace {

core::PositionAttribute AttrOnRoute(geo::RouteId route, double start,
                                    double speed, core::Time t0 = 0.0) {
  core::PositionAttribute attr;
  attr.start_time = t0;
  attr.route = route;
  attr.start_route_distance = start;
  attr.speed = speed;
  attr.update_cost = 5.0;
  attr.max_speed = 1.5;
  attr.policy = core::PolicyKind::kAverageImmediateLinear;
  return attr;
}

class TimeSpaceIndexTest : public testing::Test {
 protected:
  TimeSpaceIndexTest() {
    // Two parallel horizontal streets and one vertical.
    h0_ = network_.AddStraightRoute({0.0, 0.0}, {200.0, 0.0});
    h1_ = network_.AddStraightRoute({0.0, 50.0}, {200.0, 50.0});
    v0_ = network_.AddStraightRoute({100.0, 0.0}, {100.0, 50.0});
  }

  geo::RouteNetwork network_;
  geo::RouteId h0_, h1_, v0_;
};

TEST_F(TimeSpaceIndexTest, UpsertAndCandidates) {
  TimeSpaceIndex index(&network_);
  index.Upsert(1, AttrOnRoute(h0_, 10.0, 1.0));
  index.Upsert(2, AttrOnRoute(h1_, 10.0, 1.0));
  EXPECT_EQ(index.num_objects(), 2u);
  EXPECT_GT(index.num_entries(), 0u);

  // Query around (20, 0) at t=10: object 1 should be a candidate, object 2
  // travels 50 units north of it.
  const geo::Polygon region = geo::Polygon::Rectangle(0.0, -5.0, 40.0, 5.0);
  const auto candidates = index.Candidates(region, 10.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], 1u);
}

TEST_F(TimeSpaceIndexTest, UpsertReplacesOldPlane) {
  TimeSpaceIndex index(&network_);
  index.Upsert(1, AttrOnRoute(h0_, 10.0, 1.0));
  const std::size_t entries_before = index.num_entries();
  // The object reports from the vertical street; the old o-plane must be
  // gone (paper §4.2 update processing).
  index.Upsert(1, AttrOnRoute(v0_, 0.0, 1.0, 50.0));
  EXPECT_EQ(index.num_objects(), 1u);
  EXPECT_EQ(index.num_entries(), entries_before);
  const geo::Polygon old_region =
      geo::Polygon::Rectangle(0.0, -5.0, 40.0, 5.0);
  EXPECT_TRUE(index.Candidates(old_region, 55.0).empty());
  const geo::Polygon new_region =
      geo::Polygon::Rectangle(95.0, 0.0, 105.0, 20.0);
  EXPECT_EQ(index.Candidates(new_region, 55.0).size(), 1u);
}

TEST_F(TimeSpaceIndexTest, RemoveDeletesAllBoxes) {
  TimeSpaceIndex index(&network_);
  index.Upsert(1, AttrOnRoute(h0_, 10.0, 1.0));
  index.Remove(1);
  EXPECT_EQ(index.num_objects(), 0u);
  EXPECT_EQ(index.num_entries(), 0u);
  EXPECT_TRUE(index.rtree().CheckInvariants().ok());
  // Removing a missing object is a no-op.
  index.Remove(99);
}

TEST_F(TimeSpaceIndexTest, FutureQueriesWithinHorizon) {
  TimeSpaceIndex::Options options;
  options.oplane.horizon = 100.0;
  options.oplane.slab_width = 5.0;
  TimeSpaceIndex index(&network_, options);
  index.Upsert(1, AttrOnRoute(h0_, 0.0, 1.0));
  // At t=80 the database position is x=80.
  const geo::Polygon region = geo::Polygon::Rectangle(70.0, -5.0, 90.0, 5.0);
  EXPECT_EQ(index.Candidates(region, 80.0).size(), 1u);
  // A region the object has long passed yields nothing at t=80 (the
  // uncertainty interval of ail shrinks, so the old stretch is excluded).
  const geo::Polygon passed = geo::Polygon::Rectangle(0.0, -5.0, 20.0, 5.0);
  EXPECT_TRUE(index.Candidates(passed, 80.0).empty());
}

TEST_F(TimeSpaceIndexTest, CandidatesAreDeduplicated) {
  TimeSpaceIndex::Options options;
  options.oplane.slab_width = 1.0;  // many boxes per object
  TimeSpaceIndex index(&network_, options);
  index.Upsert(1, AttrOnRoute(h0_, 10.0, 0.0));  // parked: boxes overlap
  const geo::Polygon region = geo::Polygon::Rectangle(0.0, -5.0, 40.0, 5.0);
  const auto candidates = index.Candidates(region, 10.0);
  EXPECT_EQ(candidates.size(), 1u);
}

TEST_F(TimeSpaceIndexTest, LinearScanAgreesWithRTree) {
  // Differential test against the scan baseline: the R*-tree candidates
  // must be a superset of every object whose exact uncertainty interval
  // intersects the region (no false negatives).
  util::Rng rng(77);
  TimeSpaceIndex rtree(&network_);
  LinearScanIndex scan(&network_);
  const std::vector<geo::RouteId> routes = {h0_, h1_, v0_};
  for (core::ObjectId id = 0; id < 60; ++id) {
    const geo::RouteId route =
        routes[static_cast<std::size_t>(rng.UniformInt(0, 2))];
    const double max_start = network_.route(route).Length() * 0.5;
    const auto attr = AttrOnRoute(route, rng.Uniform(0.0, max_start),
                                  rng.Uniform(0.2, 1.2));
    rtree.Upsert(id, attr);
    scan.Upsert(id, attr);
  }
  for (int q = 0; q < 50; ++q) {
    const double cx = rng.Uniform(0.0, 200.0);
    const double cy = rng.Uniform(0.0, 50.0);
    const geo::Polygon region =
        geo::Polygon::CenteredRectangle({cx, cy}, 15.0, 10.0);
    const core::Time t = rng.Uniform(0.0, 60.0);
    const auto from_tree = rtree.Candidates(region, t);
    const auto from_scan = scan.Candidates(region, t);
    // Every scan candidate (exact-interval bbox test) must appear in the
    // tree candidates.
    for (core::ObjectId id : from_scan) {
      EXPECT_TRUE(std::binary_search(from_tree.begin(), from_tree.end(), id))
          << "query " << q << " t=" << t << " missing object " << id;
    }
  }
}

TEST_F(TimeSpaceIndexTest, UnknownRouteUpsertIsHandledError) {
  // Regression: this used to be an assert-guarded dereference — release
  // builds walked straight into undefined behaviour on an unknown route.
  TimeSpaceIndex index(&network_);
  ASSERT_TRUE(index.Upsert(1, AttrOnRoute(h0_, 10.0, 1.0)).ok());
  const std::size_t entries = index.num_entries();

  const util::Status s = index.Upsert(2, AttrOnRoute(999, 0.0, 1.0));
  EXPECT_EQ(s.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(index.num_objects(), 1u);
  EXPECT_EQ(index.num_entries(), entries);

  // The existing object is untouched even when *it* reports a bad route.
  const util::Status s2 = index.Upsert(1, AttrOnRoute(999, 0.0, 1.0));
  EXPECT_EQ(s2.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(index.num_entries(), entries);
  const geo::Polygon region = geo::Polygon::Rectangle(0.0, -5.0, 40.0, 5.0);
  EXPECT_EQ(index.Candidates(region, 10.0).size(), 1u);
}

TEST_F(TimeSpaceIndexTest, RemoveMissIsSurfacedNotSwallowed) {
  // Regression: a failed box removal during an upsert was an assert that
  // release builds compiled out, silently leaking a stale ghost box. Now
  // it is counted. Provoke the invariant breach by deleting one of the
  // object's boxes behind the bookkeeping's back.
  util::MetricsRegistry registry;
  TimeSpaceIndex index(&network_);
  index.SetMetrics(&registry, "index.");
  const auto attr = AttrOnRoute(h0_, 10.0, 1.0);
  ASSERT_TRUE(index.Upsert(1, attr).ok());
  EXPECT_EQ(index.remove_misses(), 0u);

  const std::vector<geo::Box3> boxes =
      BuildOPlaneBoxes(attr, network_.route(h0_), index.options().oplane);
  ASSERT_FALSE(boxes.empty());
  ASSERT_TRUE(index.rtree_for_testing().Remove(boxes.front(), 1));

  // The re-upsert tries to drop all recorded boxes; one is already gone.
  const auto moved = AttrOnRoute(h0_, 50.0, 1.0, 5.0);
  ASSERT_TRUE(index.Upsert(1, moved).ok());
  EXPECT_EQ(index.remove_misses(), 1u);
  EXPECT_EQ(registry.GetCounter("index.remove_miss")->value(), 1u);
  // The new plane is fully installed regardless.
  const std::vector<geo::Box3> new_boxes =
      BuildOPlaneBoxes(moved, network_.route(h0_), index.options().oplane);
  EXPECT_EQ(index.num_entries(), new_boxes.size());
}

TEST_F(TimeSpaceIndexTest, WouldMatchWindowEqualsTreeCandidacy) {
  // Seeded differential: a member's candidacy test, which builds only the
  // slabs meeting the window, must agree with the tree holding the
  // object's whole plane — at slab edges, at the plane's ends, and for
  // windows partly or wholly outside it.
  util::Rng rng(2117);
  const std::vector<geo::RouteId> routes = {h0_, v0_};
  const std::vector<core::PolicyKind> policies = {
      core::PolicyKind::kDelayedLinear,
      core::PolicyKind::kAverageImmediateLinear,
      core::PolicyKind::kCurrentImmediateLinear};
  constexpr double kMaxSpeed = 1.5;
  std::size_t matches = 0;
  std::size_t misses = 0;
  for (int c = 0; c < 2400; ++c) {
    TimeSpaceIndex::Options options;
    options.oplane.horizon = c % 2 == 0 ? 60.0 : 30.0;  // 30: short last slab
    options.oplane.slab_width = 4.0;
    TimeSpaceIndex index(&network_, options);
    const geo::Route& route = network_.route(
        routes[static_cast<std::size_t>(rng.UniformInt(0, 1))]);
    const double length = route.Length();
    const double starts[] = {0.0,          1e-9,          0.5,
                             length - 0.5, length - 1e-9, length,
                             rng.Uniform(0.0, length)};
    const double speeds[] = {0.0, kMaxSpeed, rng.Uniform(0.0, kMaxSpeed)};
    core::PositionAttribute attr = AttrOnRoute(
        route.id(), starts[static_cast<std::size_t>(rng.UniformInt(0, 6))],
        speeds[static_cast<std::size_t>(rng.UniformInt(0, 2))],
        rng.Uniform(0.0, 100.0));
    attr.max_speed = kMaxSpeed;
    attr.update_cost = rng.Uniform(1.0, 10.0);
    attr.direction = rng.Bernoulli(0.5) ? core::TravelDirection::kForward
                                        : core::TravelDirection::kBackward;
    attr.policy = policies[static_cast<std::size_t>(c / 2 % 3)];
    ASSERT_TRUE(index.Upsert(7, attr).ok());

    const core::Time ts = attr.start_time;
    const double w = options.oplane.slab_width;
    const double horizon = options.oplane.horizon;
    const auto num_slabs = static_cast<std::int64_t>(std::ceil(horizon / w));
    // A slab edge computed exactly as the builder computes it.
    const core::Time edge =
        ts + w * static_cast<double>(rng.UniformInt(0, num_slabs));
    core::Time t1 = 0.0;
    core::Time t2 = 0.0;
    switch (c / 6 % 7) {
      case 0:  // a time slice exactly on a slab edge
        t1 = t2 = edge;
        break;
      case 1:  // a time slice one ulp either side of a slab edge
        t1 = t2 = std::nextafter(edge, rng.Bernoulli(0.5) ? -1e300 : 1e300);
        break;
      case 2:  // the window starts before the update
        t1 = ts - rng.Uniform(1e-6, 10.0);
        t2 = t1 + rng.Uniform(0.0, 15.0);
        break;
      case 3:  // the window ends past the horizon
        t2 = ts + horizon + rng.Uniform(1e-6, 10.0);
        t1 = t2 - rng.Uniform(0.0, 15.0);
        break;
      case 4:  // the last instant of the plane
        t1 = t2 = ts + horizon;
        break;
      case 5:  // a reversed window
        t1 = ts + rng.Uniform(0.0, horizon);
        t2 = t1 - rng.Uniform(1e-6, 5.0);
        break;
      default:  // an ordinary window inside the plane
        t1 = ts + rng.Uniform(0.0, horizon);
        t2 = t1 + rng.Uniform(0.0, 8.0);
        break;
    }
    // A region around the database position at a time near the window,
    // sometimes off the route's line, so both outcomes occur.
    const core::Time at = std::clamp(t1 + rng.Uniform(-4.0, 4.0), ts - 5.0,
                                     ts + horizon + 5.0);
    const geo::Point2 p =
        route.PointAt(attr.ClampedDatabaseRouteDistanceAt(at, length));
    const double cx = p.x + rng.Uniform(-8.0, 8.0);
    const double cy = p.y + rng.Uniform(-8.0, 8.0);
    const geo::Polygon region = geo::Polygon::CenteredRectangle(
        {cx, cy}, rng.Uniform(0.1, 8.0), rng.Uniform(0.1, 8.0));

    const std::vector<core::ObjectId> from_tree =
        index.CandidatesInWindow(region, t1, t2);
    const bool in_tree =
        std::find(from_tree.begin(), from_tree.end(), 7) != from_tree.end();
    EXPECT_EQ(index.WouldMatchWindow(7, attr, region, t1, t2), in_tree)
        << "case " << c << " t1=" << t1 << " t2=" << t2 << " ts=" << ts;
    if (in_tree) {
      ++matches;
    } else {
      ++misses;
    }
  }
  // Both outcomes are exercised in earnest.
  EXPECT_GT(matches, 400u);
  EXPECT_GT(misses, 400u);
}

TEST_F(TimeSpaceIndexTest, NamesAndOptions) {
  TimeSpaceIndex rtree(&network_);
  LinearScanIndex scan(&network_);
  EXPECT_EQ(rtree.name(), "rtree");
  EXPECT_EQ(scan.name(), "scan");
  EXPECT_GT(rtree.options().oplane.horizon, 0.0);
}

TEST_F(TimeSpaceIndexTest, ScanIndexBasics) {
  LinearScanIndex scan(&network_);
  scan.Upsert(1, AttrOnRoute(h0_, 10.0, 1.0));
  scan.Upsert(2, AttrOnRoute(h1_, 10.0, 1.0));
  EXPECT_EQ(scan.num_objects(), 2u);
  EXPECT_EQ(scan.num_entries(), 2u);
  const geo::Polygon region = geo::Polygon::Rectangle(0.0, -5.0, 40.0, 5.0);
  const auto candidates = scan.Candidates(region, 10.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], 1u);
  scan.Remove(1);
  EXPECT_TRUE(scan.Candidates(region, 10.0).empty());
}

}  // namespace
}  // namespace modb::index
