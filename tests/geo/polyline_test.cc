#include "geo/polyline.h"

#include <gtest/gtest.h>

#include "core/refiner.h"
#include "util/rng.h"

namespace modb::geo {
namespace {

Polyline MakeL() {
  // L-shaped: (0,0) -> (10,0) -> (10,10); total length 20.
  return Polyline({{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}});
}

TEST(PolylineTest, LengthAndValidity) {
  const Polyline line = MakeL();
  EXPECT_TRUE(line.Valid());
  EXPECT_DOUBLE_EQ(line.Length(), 20.0);
  EXPECT_EQ(line.num_segments(), 2u);
}

TEST(PolylineTest, CollapsesConsecutiveDuplicates) {
  const Polyline line(
      {{0.0, 0.0}, {0.0, 0.0}, {5.0, 0.0}, {5.0, 0.0}, {5.0, 5.0}});
  EXPECT_EQ(line.points().size(), 3u);
  EXPECT_DOUBLE_EQ(line.Length(), 10.0);
}

TEST(PolylineTest, InvalidWithFewPoints) {
  EXPECT_FALSE(Polyline().Valid());
  EXPECT_FALSE(Polyline({{1.0, 1.0}}).Valid());
  EXPECT_FALSE(Polyline({{1.0, 1.0}, {1.0, 1.0}}).Valid());
}

TEST(PolylineTest, PointAtDistance) {
  const Polyline line = MakeL();
  EXPECT_EQ(line.PointAtDistance(0.0), (Point2{0.0, 0.0}));
  EXPECT_EQ(line.PointAtDistance(5.0), (Point2{5.0, 0.0}));
  EXPECT_EQ(line.PointAtDistance(10.0), (Point2{10.0, 0.0}));  // vertex
  EXPECT_EQ(line.PointAtDistance(15.0), (Point2{10.0, 5.0}));
  EXPECT_EQ(line.PointAtDistance(20.0), (Point2{10.0, 10.0}));
  // Clamps beyond the ends.
  EXPECT_EQ(line.PointAtDistance(-5.0), (Point2{0.0, 0.0}));
  EXPECT_EQ(line.PointAtDistance(25.0), (Point2{10.0, 10.0}));
}

TEST(PolylineTest, TangentAtDistance) {
  const Polyline line = MakeL();
  EXPECT_TRUE(ApproxEqual(line.TangentAtDistance(5.0), {1.0, 0.0}));
  EXPECT_TRUE(ApproxEqual(line.TangentAtDistance(15.0), {0.0, 1.0}));
}

TEST(PolylineTest, ProjectPointOntoSegments) {
  const Polyline line = MakeL();
  double dist = 0.0;
  EXPECT_DOUBLE_EQ(line.ProjectPoint({5.0, 3.0}, &dist), 5.0);
  EXPECT_DOUBLE_EQ(dist, 3.0);
  EXPECT_DOUBLE_EQ(line.ProjectPoint({12.0, 5.0}, &dist), 15.0);
  EXPECT_DOUBLE_EQ(dist, 2.0);
}

TEST(PolylineTest, ProjectPointPicksNearerSegment) {
  const Polyline line = MakeL();
  // Near the corner, slightly closer to the vertical segment.
  const double s = line.ProjectPoint({10.5, 1.0});
  EXPECT_NEAR(s, 11.0, 1e-9);
}

TEST(PolylineTest, ProjectRoundTripsPointAt) {
  const Polyline line = MakeL();
  util::Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    const double s = rng.Uniform(0.0, line.Length());
    double dist = 1.0;
    const double s_back = line.ProjectPoint(line.PointAtDistance(s), &dist);
    EXPECT_NEAR(s_back, s, 1e-9);
    EXPECT_NEAR(dist, 0.0, 1e-9);
  }
}

TEST(PolylineTest, BoundingBoxBetween) {
  const Polyline line = MakeL();
  // Spanning the corner.
  const Box2 box = line.BoundingBoxBetween(5.0, 15.0);
  EXPECT_EQ(box.min, (Point2{5.0, 0.0}));
  EXPECT_EQ(box.max, (Point2{10.0, 5.0}));
  // Swapped arguments are normalised.
  const Box2 swapped = line.BoundingBoxBetween(15.0, 5.0);
  EXPECT_EQ(swapped.min, box.min);
  EXPECT_EQ(swapped.max, box.max);
  // Zero-width interval.
  const Box2 point_box = line.BoundingBoxBetween(5.0, 5.0);
  EXPECT_EQ(point_box.min, (Point2{5.0, 0.0}));
  EXPECT_EQ(point_box.max, (Point2{5.0, 0.0}));
}

TEST(PolylineTest, SubPolylineIncludesInteriorVertices) {
  const Polyline line = MakeL();
  std::vector<Point2> sub;
  line.SubPolyline(5.0, 15.0, &sub);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub[0], (Point2{5.0, 0.0}));
  EXPECT_EQ(sub[1], (Point2{10.0, 0.0}));
  EXPECT_EQ(sub[2], (Point2{10.0, 5.0}));
}

TEST(PolylineTest, SubPolylineDegenerate) {
  const Polyline line = MakeL();
  std::vector<Point2> sub = {{1.0, 1.0}, {2.0, 2.0}};  // replaced, not kept
  line.SubPolyline(7.0, 7.0, &sub);
  ASSERT_EQ(sub.size(), 1u);
  EXPECT_EQ(sub[0], (Point2{7.0, 0.0}));
}

// The sub-curve predicates live in the refine kernel (core::Refiner): a
// stretch meets the polygon when Classify does not answer kOutside, and lies
// in it when Inside holds.
bool SubIntersects(const Polyline& line, double s0, double s1,
                   const Polygon& polygon) {
  return core::Refiner().Classify(polygon, line, {s0, s1}) !=
         core::RegionRelation::kOutside;
}

bool SubInside(const Polyline& line, double s0, double s1,
               const Polygon& polygon) {
  return core::Refiner().Inside(polygon, line, {s0, s1});
}

TEST(PolylineTest, SubIntersectsPolygon) {
  const Polyline line = MakeL();
  const Polygon square = Polygon::Rectangle(4.0, -1.0, 6.0, 1.0);
  EXPECT_TRUE(SubIntersects(line, 0.0, 10.0, square));
  EXPECT_TRUE(SubIntersects(line, 4.5, 5.5, square));
  EXPECT_FALSE(SubIntersects(line, 7.0, 9.0, square));
  EXPECT_FALSE(SubIntersects(line, 12.0, 18.0, square));
}

TEST(PolylineTest, SubInsidePolygon) {
  const Polyline line = MakeL();
  const Polygon big = Polygon::Rectangle(-1.0, -1.0, 11.0, 11.0);
  EXPECT_TRUE(SubInside(line, 0.0, 20.0, big));
  const Polygon small = Polygon::Rectangle(4.0, -1.0, 6.0, 1.0);
  EXPECT_TRUE(SubInside(line, 4.5, 5.5, small));
  EXPECT_FALSE(SubInside(line, 4.5, 8.0, small));
}

TEST(PolylineTest, SubInsidePolygonSpanningCorner) {
  const Polyline line = MakeL();
  // Polygon covering only the corner region.
  const Polygon corner = Polygon::Rectangle(8.0, -1.0, 11.0, 3.0);
  EXPECT_TRUE(SubInside(line, 9.0, 12.0, corner));
  EXPECT_FALSE(SubInside(line, 9.0, 14.0, corner));
}

TEST(PolylineTest, SegmentIndexAt) {
  const Polyline line = MakeL();
  EXPECT_EQ(line.SegmentIndexAt(0.0), 0u);
  EXPECT_EQ(line.SegmentIndexAt(9.9), 0u);
  EXPECT_EQ(line.SegmentIndexAt(10.1), 1u);
  EXPECT_EQ(line.SegmentIndexAt(20.0), 1u);
}

}  // namespace
}  // namespace modb::geo
