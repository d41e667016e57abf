#ifndef MODB_GEO_POLYLINE_H_
#define MODB_GEO_POLYLINE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "geo/box.h"
#include "geo/point.h"
#include "geo/segment.h"

namespace modb::geo {

/// Piecewise-linear curve with arc-length parametrisation.
///
/// Routes in the paper are piecewise-linear; every position on a route is
/// addressed by its *route-distance* (arc length) from the first vertex.
/// `Polyline` pre-computes cumulative lengths so `PointAtDistance` and
/// `ProjectPoint` run in O(log n) / O(n).
class Polyline {
 public:
  Polyline() = default;
  /// Builds a polyline through `points` (at least 2; consecutive duplicates
  /// are collapsed).
  explicit Polyline(std::vector<Point2> points);

  const std::vector<Point2>& points() const { return points_; }
  std::size_t num_segments() const {
    return points_.size() < 2 ? 0 : points_.size() - 1;
  }
  bool Valid() const { return points_.size() >= 2; }

  /// Total arc length.
  double Length() const { return cumulative_.empty() ? 0.0 : cumulative_.back(); }

  /// Point at arc length `s` from the start; `s` is clamped to [0, Length()].
  Point2 PointAtDistance(double s) const;

  /// Unit tangent of the segment containing arc length `s` (direction of
  /// travel). Requires `Valid()`.
  Point2 TangentAtDistance(double s) const;

  /// Projects `p` onto the polyline: returns the arc length of the nearest
  /// point. `out_distance`, when non-null, receives the Euclidean distance
  /// from `p` to that nearest point.
  double ProjectPoint(const Point2& p, double* out_distance = nullptr) const;

  /// Bounding box of the whole polyline.
  Box2 BoundingBox() const { return bbox_; }

  /// Bounding box of the sub-curve with arc lengths in [s0, s1]
  /// (clamped; s0 <= s1 after swap).
  Box2 BoundingBoxBetween(double s0, double s1) const;

  /// Vertices of the sub-curve with arc lengths in [s0, s1], including the
  /// interpolated endpoints, written to `out` (its contents are replaced,
  /// its capacity reused). Always at least one point when Valid().
  void SubPolyline(double s0, double s1, std::vector<Point2>* out) const;

  /// Arc-length intervals [s0, s1] where the curve lies in the closed box
  /// `box`, ascending; pieces of consecutive segments that touch are
  /// merged. An interval ends exactly at a vertex's arc length when the
  /// curve leaves the box there.
  std::vector<std::pair<double, double>> IntervalsInBox(const Box2& box) const;

  /// Segment index containing arc length `s`, in [0, num_segments()).
  std::size_t SegmentIndexAt(double s) const;

 private:
  // Point at arc length `s` (in [0, Length()]) on segment `i`, which must be
  // SegmentIndexAt(s).
  Point2 PointOnSegment(std::size_t i, double s) const;

  std::vector<Point2> points_;
  std::vector<double> cumulative_;  // cumulative_[i] = arc length at vertex i
  Box2 bbox_;
};

}  // namespace modb::geo

#endif  // MODB_GEO_POLYLINE_H_
