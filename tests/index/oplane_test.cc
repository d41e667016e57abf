#include "index/oplane.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.h"

namespace modb::index {
namespace {

geo::Route StraightRoute(double length = 1000.0) {
  return geo::Route(0, geo::Polyline({{0.0, 0.0}, {length, 0.0}}));
}

core::PositionAttribute MakeAttr(
    core::PolicyKind kind = core::PolicyKind::kDelayedLinear) {
  core::PositionAttribute attr;
  attr.start_time = 10.0;
  attr.route = 0;
  attr.start_route_distance = 100.0;
  attr.start_position = {100.0, 0.0};
  attr.speed = 1.0;
  attr.update_cost = 5.0;
  attr.max_speed = 1.5;
  attr.policy = kind;
  return attr;
}

TEST(OPlaneTest, SlabCountMatchesHorizon) {
  const geo::Route route = StraightRoute();
  OPlaneOptions options;
  options.horizon = 60.0;
  options.slab_width = 4.0;
  const auto boxes = BuildOPlaneBoxes(MakeAttr(), route, options);
  EXPECT_EQ(boxes.size(), 15u);
}

TEST(OPlaneTest, PartialSlabAtHorizonEnd) {
  const geo::Route route = StraightRoute();
  OPlaneOptions options;
  options.horizon = 10.0;
  options.slab_width = 4.0;
  const auto boxes = BuildOPlaneBoxes(MakeAttr(), route, options);
  ASSERT_EQ(boxes.size(), 3u);
  EXPECT_DOUBLE_EQ(boxes.back().max[2], 20.0);  // start_time + horizon
}

TEST(OPlaneTest, SlabsTileTimeContiguously) {
  const geo::Route route = StraightRoute();
  OPlaneOptions options;
  options.horizon = 20.0;
  options.slab_width = 5.0;
  const auto boxes = BuildOPlaneBoxes(MakeAttr(), route, options);
  ASSERT_EQ(boxes.size(), 4u);
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_DOUBLE_EQ(boxes[i].min[2], 10.0 + 5.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(boxes[i].max[2], 10.0 + 5.0 * static_cast<double>(i + 1));
  }
}

TEST(OPlaneTest, BoxesCoverUncertaintyIntervalEverywhere) {
  // Soundness: at any time inside a slab, the exact uncertainty interval
  // must lie inside the slab's spatial box — else the index would produce
  // false negatives.
  const geo::Route route = StraightRoute();
  for (core::PolicyKind kind :
       {core::PolicyKind::kDelayedLinear,
        core::PolicyKind::kAverageImmediateLinear,
        core::PolicyKind::kFixedThreshold, core::PolicyKind::kPeriodic}) {
    core::PositionAttribute attr = MakeAttr(kind);
    attr.fixed_threshold = 2.0;
    attr.period = 1.0;
    OPlaneOptions options;
    options.horizon = 40.0;
    options.slab_width = 7.0;  // deliberately not aligned with bound peaks
    const auto boxes = BuildOPlaneBoxes(attr, route, options);
    for (double dt = 0.0; dt <= 40.0; dt += 0.01) {
      const core::Time t = attr.start_time + dt;
      const core::UncertaintyInterval iv =
          core::ComputeUncertainty(attr, route, t);
      // Find the slab containing t (boundary times may be in either slab).
      bool covered = false;
      for (const geo::Box3& box : boxes) {
        if (t < box.min[2] - 1e-12 || t > box.max[2] + 1e-12) continue;
        const geo::Point2 lo = route.PointAt(iv.lo);
        const geo::Point2 hi = route.PointAt(iv.hi);
        if (lo.x >= box.min[0] - 1e-9 && hi.x <= box.max[0] + 1e-9) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << PolicyKindName(kind) << " at dt=" << dt;
      if (!covered) break;
    }
  }
}

TEST(OPlaneTest, DegenerateOptionsYieldNothing) {
  const geo::Route route = StraightRoute();
  OPlaneOptions options;
  options.horizon = 0.0;
  EXPECT_TRUE(BuildOPlaneBoxes(MakeAttr(), route, options).empty());
  options.horizon = 10.0;
  options.slab_width = 0.0;
  EXPECT_TRUE(BuildOPlaneBoxes(MakeAttr(), route, options).empty());
}

TEST(OPlaneTest, NarrowSlabsGiveTighterBoxes) {
  // Ablation E7: smaller slab width -> smaller per-box spatial extent.
  const geo::Route route = StraightRoute();
  OPlaneOptions coarse;
  coarse.horizon = 32.0;
  coarse.slab_width = 16.0;
  OPlaneOptions fine = coarse;
  fine.slab_width = 2.0;
  const auto big = BuildOPlaneBoxes(MakeAttr(), route, coarse);
  const auto small = BuildOPlaneBoxes(MakeAttr(), route, fine);
  double max_big = 0.0;
  double max_small = 0.0;
  for (const auto& b : big) max_big = std::max(max_big, b.Extent(0));
  for (const auto& b : small) max_small = std::max(max_small, b.Extent(0));
  EXPECT_LT(max_small, max_big);
  EXPECT_GT(small.size(), big.size());
}

TEST(QuerySlabTest, ZeroThicknessTimeSlice) {
  const geo::Box2 region({0.0, 0.0}, {10.0, 10.0});
  const geo::Box3 slab = QuerySlab(region, 42.0);
  EXPECT_DOUBLE_EQ(slab.min[2], 42.0);
  EXPECT_DOUBLE_EQ(slab.max[2], 42.0);
  EXPECT_DOUBLE_EQ(slab.min[0], 0.0);
  EXPECT_DOUBLE_EQ(slab.max[1], 10.0);
}

}  // namespace
}  // namespace modb::index
