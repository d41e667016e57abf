#ifndef MODB_GEO_SEGMENT_H_
#define MODB_GEO_SEGMENT_H_

#include <optional>

#include "geo/box.h"
#include "geo/point.h"

namespace modb::geo {

/// Closed line segment between two points.
struct Segment {
  Point2 a;
  Point2 b;

  Segment() = default;
  Segment(Point2 p, Point2 q) : a(p), b(q) {}

  double Length() const { return Distance(a, b); }

  /// Point at parameter `t` in [0, 1] along the segment (clamped).
  Point2 At(double t) const;

  /// Point on the segment closest to `p`.
  Point2 ClosestPoint(const Point2& p) const;

  /// Parameter in [0, 1] of the point on the segment closest to `p`.
  double ClosestParam(const Point2& p) const;

  /// Euclidean distance from `p` to the segment.
  double DistanceTo(const Point2& p) const;

  Box2 BoundingBox() const;
};

/// Orientation of the triple (a, b, c): +1 counter-clockwise, -1 clockwise,
/// 0 collinear within kGeomEpsilon scaled by max{1, |b - a|, |c - a|}.
int Orientation(const Point2& a, const Point2& b, const Point2& c);

/// True when segments `s` and `t` share at least one point (including
/// touching endpoints and collinear overlap).
bool SegmentsIntersect(const Segment& s, const Segment& t);

/// Intersection point of two properly crossing segments; nullopt when the
/// segments do not cross at a single interior/endpoint location (parallel or
/// disjoint). For collinear overlap, returns one shared point.
std::optional<Point2> SegmentIntersection(const Segment& s, const Segment& t);

}  // namespace modb::geo

#endif  // MODB_GEO_SEGMENT_H_
