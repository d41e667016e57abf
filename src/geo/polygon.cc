#include "geo/polygon.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace modb::geo {

namespace {

// True when segments properly cross (intersection interior to both). The
// second pair of orientations runs only when t straddles s's line.
bool ProperCrossing(const Segment& s, const Segment& t) {
  return Orientation(s.a, s.b, t.a) * Orientation(s.a, s.b, t.b) < 0 &&
         Orientation(t.a, t.b, s.a) * Orientation(t.a, t.b, s.b) < 0;
}

}  // namespace

Polygon::Polygon(std::vector<Point2> vertices) : vertices_(std::move(vertices)) {
  for (const Point2& v : vertices_) bbox_.Expand(v);
}

Polygon Polygon::Rectangle(double x0, double y0, double x1, double y1) {
  if (x0 > x1) std::swap(x0, x1);
  if (y0 > y1) std::swap(y0, y1);
  return Polygon({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
}

Polygon Polygon::CenteredRectangle(const Point2& c, double hx, double hy) {
  return Rectangle(c.x - hx, c.y - hy, c.x + hx, c.y + hy);
}

Polygon Polygon::RegularNGon(const Point2& c, double r, std::size_t n) {
  assert(n >= 3);
  std::vector<Point2> verts;
  verts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double theta = 2.0 * M_PI * static_cast<double>(i) /
                         static_cast<double>(n);
    verts.push_back({c.x + r * std::cos(theta), c.y + r * std::sin(theta)});
  }
  return Polygon(std::move(verts));
}

Segment Polygon::Edge(std::size_t i) const {
  return Segment(vertices_[i], vertices_[(i + 1) % vertices_.size()]);
}

bool Polygon::Contains(const Point2& p) const {
  if (!Valid() || !bbox_.Contains(p)) return false;
  // Even-odd ray casting with a horizontal ray to +x, in one pass with the
  // boundary test: points within kGeomEpsilon of an edge count as
  // contained.
  const std::size_t n = vertices_.size();
  bool inside = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Point2& a = vertices_[i];
    const Point2& b = vertices_[i + 1 < n ? i + 1 : 0];
    if (NormAtMost(p - Segment(a, b).ClosestPoint(p), kGeomEpsilon)) {
      return true;
    }
    const bool crosses = (a.y > p.y) != (b.y > p.y);
    if (!crosses) continue;
    const double x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
    if (p.x < x_at) inside = !inside;
  }
  return inside;
}

bool Polygon::Intersects(const Segment& s) const {
  return Intersects(s, Contains(s.a), Contains(s.b));
}

bool Polygon::Intersects(const Segment& s, bool a_inside,
                         bool b_inside) const {
  if (!Valid()) return false;
  if (!bbox_.Intersects(s.BoundingBox())) return false;
  if (a_inside || b_inside) return true;
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    if (SegmentsIntersect(Edge(i), s)) return true;
  }
  return false;
}

bool Polygon::ContainsSegment(const Segment& s) const {
  return ContainsSegment(s, Contains(s.a), Contains(s.b));
}

bool Polygon::ContainsSegment(const Segment& s, bool a_inside,
                              bool b_inside) const {
  if (!Valid() || !a_inside || !b_inside) return false;
  // A segment with both endpoints inside can only leave a (possibly
  // non-convex) polygon by properly crossing its boundary.
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    if (ProperCrossing(Edge(i), s)) return false;
  }
  // Midpoint check guards the endpoints-on-boundary corner case where the
  // segment runs outside between two boundary contacts.
  return Contains(s.At(0.5));
}

double Polygon::IntersectionLength(const Segment& s) const {
  std::vector<double> params;
  return IntersectionLength(s, &params);
}

double Polygon::IntersectionLength(const Segment& s,
                                   std::vector<double>* params) const {
  if (!Valid()) return 0.0;
  const double total = s.Length();
  if (total <= kGeomEpsilon) return 0.0;  // degenerate segment: no length
  if (!bbox_.Intersects(s.BoundingBox())) return 0.0;

  // Collect the parameters where the segment crosses the boundary, then
  // classify each piece between consecutive parameters by its midpoint.
  std::vector<double>& at = *params;
  at.assign({0.0, 1.0});
  const Point2 dir = s.b - s.a;
  const double len2 = dir.NormSquared();
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const auto hit = SegmentIntersection(s, Edge(i));
    if (!hit.has_value()) continue;
    at.push_back(std::clamp(Dot(*hit - s.a, dir) / len2, 0.0, 1.0));
  }
  std::sort(at.begin(), at.end());

  double inside = 0.0;
  for (std::size_t i = 0; i + 1 < at.size(); ++i) {
    const double span = at[i + 1] - at[i];
    if (span <= kGeomEpsilon) continue;
    const Point2 mid = s.At(0.5 * (at[i] + at[i + 1]));
    if (Contains(mid)) inside += span;
  }
  return inside * total;
}

double Polygon::SignedArea() const {
  if (!Valid()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const Point2& a = vertices_[i];
    const Point2& b = vertices_[(i + 1) % vertices_.size()];
    acc += Cross(a, b);
  }
  return 0.5 * acc;
}

}  // namespace modb::geo
