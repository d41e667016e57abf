// Tests of the exact clipping primitives behind probability refinement:
// Polygon::IntersectionLength and the refine kernel's in-region share of a
// sub-curve (core::Refiner::Probability).

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/refiner.h"
#include "geo/polygon.h"
#include "geo/polyline.h"
#include "util/rng.h"

namespace modb::geo {
namespace {

TEST(IntersectionLengthTest, FullyInside) {
  const Polygon square = Polygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  EXPECT_DOUBLE_EQ(square.IntersectionLength(Segment({1, 5}, {9, 5})), 8.0);
}

TEST(IntersectionLengthTest, FullyOutside) {
  const Polygon square = Polygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  EXPECT_DOUBLE_EQ(square.IntersectionLength(Segment({11, 5}, {20, 5})), 0.0);
  EXPECT_DOUBLE_EQ(square.IntersectionLength(Segment({-5, 20}, {15, 20})),
                   0.0);
}

TEST(IntersectionLengthTest, CrossingOneEdge) {
  const Polygon square = Polygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  // Enters at x=10, 5 units inside.
  EXPECT_DOUBLE_EQ(square.IntersectionLength(Segment({5, 5}, {15, 5})), 5.0);
}

TEST(IntersectionLengthTest, CrossingWholePolygon) {
  const Polygon square = Polygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  EXPECT_DOUBLE_EQ(square.IntersectionLength(Segment({-5, 5}, {15, 5})),
                   10.0);
}

TEST(IntersectionLengthTest, DiagonalThroughSquare) {
  const Polygon square = Polygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  EXPECT_NEAR(square.IntersectionLength(Segment({-1, -1}, {11, 11})),
              10.0 * std::sqrt(2.0), 1e-9);
}

TEST(IntersectionLengthTest, NonConvexNotch) {
  // L-shape; a segment passing over the notch is inside on two pieces.
  const Polygon ell({{0, 0}, {4, 0}, {4, 4}, {3, 4}, {3, 1}, {1, 1},
                     {1, 4}, {0, 4}});
  // y = 2 crosses: inside [0,1] and [3,4] -> length 2.
  EXPECT_NEAR(ell.IntersectionLength(Segment({-1, 2}, {5, 2})), 2.0, 1e-9);
  // y = 0.5 is inside the base: [0,4] -> length 4.
  EXPECT_NEAR(ell.IntersectionLength(Segment({-1, 0.5}, {5, 0.5})), 4.0,
              1e-9);
}

TEST(IntersectionLengthTest, DegenerateSegment) {
  const Polygon square = Polygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  EXPECT_DOUBLE_EQ(square.IntersectionLength(Segment({5, 5}, {5, 5})), 0.0);
}

TEST(IntersectionLengthTest, SegmentAlongBoundary) {
  const Polygon square = Polygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  // Boundary counts as contained: the full run lies "inside".
  EXPECT_NEAR(square.IntersectionLength(Segment({0, 0}, {10, 0})), 10.0,
              1e-9);
}

TEST(IntersectionLengthTest, InvalidPolygon) {
  const Polygon invalid;
  EXPECT_DOUBLE_EQ(invalid.IntersectionLength(Segment({0, 0}, {1, 1})), 0.0);
}

// Property: length inside + length outside == total, sampled check.
TEST(IntersectionLengthTest, ComplementsToTotalLength) {
  const Polygon hexagon = Polygon::RegularNGon({5.0, 5.0}, 4.0, 6);
  util::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const Segment s({rng.Uniform(-2.0, 12.0), rng.Uniform(-2.0, 12.0)},
                    {rng.Uniform(-2.0, 12.0), rng.Uniform(-2.0, 12.0)});
    const double inside = hexagon.IntersectionLength(s);
    EXPECT_GE(inside, -1e-9);
    EXPECT_LE(inside, s.Length() + 1e-9);
    // Cross-check against dense sampling.
    int in_samples = 0;
    const int kSamples = 2000;
    for (int k = 0; k < kSamples; ++k) {
      const double t = (k + 0.5) / kSamples;
      if (hexagon.Contains(s.At(t))) ++in_samples;
    }
    const double sampled = s.Length() * in_samples / kSamples;
    EXPECT_NEAR(inside, sampled, s.Length() * 5e-3 + 1e-9) << "i=" << i;
  }
}

TEST(SubLengthInsidePolygonTest, PolylineSpanningRegion) {
  // L-shaped polyline; region covers the first arm fully and half of the
  // second. The share times the stretch's length is the length inside.
  const Polyline line({{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}});
  const Polygon region = Polygon::Rectangle(-1.0, -1.0, 11.0, 5.0);
  core::Refiner refiner;
  EXPECT_NEAR(20.0 * refiner.Probability(region, line, {0.0, 20.0}), 15.0,
              1e-9);
  EXPECT_NEAR(15.0 * refiner.Probability(region, line, {5.0, 20.0}), 10.0,
              1e-9);
  EXPECT_NEAR(4.0 * refiner.Probability(region, line, {16.0, 20.0}), 0.0,
              1e-9);
}

TEST(SubLengthInsidePolygonTest, DegenerateInterval) {
  // A zero-width stretch has no length to share: its point decides.
  const Polyline line({{0.0, 0.0}, {10.0, 0.0}});
  const Polygon region = Polygon::Rectangle(-1.0, -1.0, 11.0, 1.0);
  core::Refiner refiner;
  EXPECT_DOUBLE_EQ(refiner.Probability(region, line, {5.0, 5.0}), 1.0);
  const Polygon away = Polygon::Rectangle(20.0, -1.0, 30.0, 1.0);
  EXPECT_DOUBLE_EQ(refiner.Probability(away, line, {5.0, 5.0}), 0.0);
}

TEST(IntervalsInBoxTest, ClipsMergesAndKeepsVertexDistances) {
  // A U-shaped route: up the left leg, across the top, down the right leg.
  // The first box holds the upper halves of both legs and the whole top,
  // which merge into one stretch.
  using Interval = std::pair<double, double>;
  const Polyline u({{0.0, 0.0}, {0.0, 10.0}, {10.0, 10.0}, {10.0, 0.0}});
  const Box2 top({-1.0, 5.0}, {11.0, 11.0});
  EXPECT_EQ(u.IntervalsInBox(top), (std::vector<Interval>{{5.0, 25.0}}));
  // Two separate stretches when the box misses the top arm.
  const Box2 low({-1.0, 2.0}, {11.0, 4.0});
  EXPECT_EQ(u.IntervalsInBox(low),
            (std::vector<Interval>{{2.0, 4.0}, {26.0, 28.0}}));
  // Touching the route at one vertex gives a point interval; the end
  // vertex keeps its exact arc length.
  EXPECT_EQ(u.IntervalsInBox(Box2({10.0, -5.0}, {20.0, 0.0})),
            (std::vector<Interval>{{30.0, 30.0}}));
  EXPECT_TRUE(u.IntervalsInBox(Box2({20.0, 20.0}, {30.0, 30.0})).empty());
  EXPECT_TRUE(u.IntervalsInBox(Box2()).empty());
}

}  // namespace
}  // namespace modb::geo
