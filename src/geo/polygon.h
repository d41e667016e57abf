#ifndef MODB_GEO_POLYGON_H_
#define MODB_GEO_POLYGON_H_

#include <cstddef>
#include <vector>

#include "geo/box.h"
#include "geo/point.h"
#include "geo/segment.h"

namespace modb::geo {

/// Simple polygon given by its vertex ring (implicitly closed).
///
/// Queries in the paper are of the form "retrieve the objects that are in
/// polygon G"; `Polygon` provides the point containment and segment
/// intersection predicates that the MUST/MAY classification needs.
class Polygon {
 public:
  Polygon() = default;
  /// Builds a polygon from `vertices` (at least 3, in either winding order).
  explicit Polygon(std::vector<Point2> vertices);

  /// Axis-aligned rectangle [x0,x1] x [y0,y1].
  static Polygon Rectangle(double x0, double y0, double x1, double y1);
  /// Rectangle centred at `c` with half-extents hx, hy.
  static Polygon CenteredRectangle(const Point2& c, double hx, double hy);
  /// Regular n-gon approximating the disc of radius `r` around `c`
  /// (n >= 3; the polygon is inscribed in the circle).
  static Polygon RegularNGon(const Point2& c, double r, std::size_t n);

  const std::vector<Point2>& vertices() const { return vertices_; }
  std::size_t size() const { return vertices_.size(); }
  bool Valid() const { return vertices_.size() >= 3; }

  /// Edge `i` (from vertex i to vertex (i+1) mod n).
  Segment Edge(std::size_t i) const;

  /// True when `p` is inside or on the boundary (even-odd rule with an
  /// explicit boundary test, so boundary points count as contained).
  bool Contains(const Point2& p) const;

  /// True when segment `s` intersects the polygon (boundary or interior).
  bool Intersects(const Segment& s) const;
  /// `Intersects(s)` for a caller that already holds `Contains(s.a)` and
  /// `Contains(s.b)`.
  bool Intersects(const Segment& s, bool a_inside, bool b_inside) const;

  /// True when segment `s` lies entirely inside the polygon (boundary
  /// included). For convex polygons this is exact; for non-convex polygons
  /// it additionally verifies that `s` does not properly cross any edge.
  bool ContainsSegment(const Segment& s) const;
  /// `ContainsSegment(s)` for a caller that already holds `Contains(s.a)`
  /// and `Contains(s.b)`.
  bool ContainsSegment(const Segment& s, bool a_inside, bool b_inside) const;

  /// Length of the part of segment `s` that lies inside the polygon
  /// (boundary included). Exact: clips the segment at every edge crossing
  /// and classifies each piece by its midpoint.
  double IntersectionLength(const Segment& s) const;
  /// The same, collecting the crossing parameters in `params` (scratch the
  /// caller reuses across calls; its contents are overwritten).
  double IntersectionLength(const Segment& s,
                            std::vector<double>* params) const;

  /// Signed area (> 0 for counter-clockwise rings).
  double SignedArea() const;
  /// Absolute area.
  double Area() const { return SignedArea() < 0 ? -SignedArea() : SignedArea(); }

  Box2 BoundingBox() const { return bbox_; }

 private:
  std::vector<Point2> vertices_;
  Box2 bbox_;
};

}  // namespace modb::geo

#endif  // MODB_GEO_POLYGON_H_
