#include "index/timespace_index.h"

#include <gtest/gtest.h>

#include <algorithm>

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
