#include "geo/segment.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace modb::geo {

namespace {

// True when collinear point `p` lies within the bounding box of segment ab.
bool OnSegment(const Point2& a, const Point2& b, const Point2& p) {
  return p.x <= std::max(a.x, b.x) + kGeomEpsilon &&
         p.x >= std::min(a.x, b.x) - kGeomEpsilon &&
         p.y <= std::max(a.y, b.y) + kGeomEpsilon &&
         p.y >= std::min(a.y, b.y) - kGeomEpsilon;
}

}  // namespace

int Orientation(const Point2& a, const Point2& b, const Point2& c) {
  const Point2 u = b - a;
  const Point2 w = c - a;
  const double v = Cross(u, w);
  const double av = std::fabs(v);
  // The tolerance scale max{1, |u|, |w|} lies in [max{1, m}, max{1, 2m}]
  // for m the largest absolute coordinate of u and w, and rounding is
  // monotone, so std::hypot runs only when |v| falls between the two
  // products, or when a coordinate is not finite.
  const double ux = std::fabs(u.x);
  const double uy = std::fabs(u.y);
  const double wx = std::fabs(w.x);
  const double wy = std::fabs(w.y);
  if (ux + uy + wx + wy <= std::numeric_limits<double>::max()) {
    const double m = std::max(std::max(ux, uy), std::max(wx, wy));
    if (av <= kGeomEpsilon * std::max(1.0, m)) return 0;
    if (av > kGeomEpsilon * std::max(1.0, 2.0 * m)) return v > 0 ? 1 : -1;
  }
  const double scale = std::max({1.0, u.Norm(), w.Norm()});
  if (av <= kGeomEpsilon * scale) return 0;
  return v > 0 ? 1 : -1;
}

Point2 Segment::At(double t) const {
  t = std::clamp(t, 0.0, 1.0);
  return Lerp(a, b, t);
}

double Segment::ClosestParam(const Point2& p) const {
  const Point2 d = b - a;
  const double len2 = d.NormSquared();
  if (len2 <= kGeomEpsilon * kGeomEpsilon) return 0.0;  // Degenerate segment.
  return std::clamp(Dot(p - a, d) / len2, 0.0, 1.0);
}

Point2 Segment::ClosestPoint(const Point2& p) const { return At(ClosestParam(p)); }

double Segment::DistanceTo(const Point2& p) const {
  return Distance(p, ClosestPoint(p));
}

Box2 Segment::BoundingBox() const {
  Box2 box;
  box.Expand(a);
  box.Expand(b);
  return box;
}

bool SegmentsIntersect(const Segment& s, const Segment& t) {
  const int o1 = Orientation(s.a, s.b, t.a);
  const int o2 = Orientation(s.a, s.b, t.b);
  const int o3 = Orientation(t.a, t.b, s.a);
  const int o4 = Orientation(t.a, t.b, s.b);

  if (o1 != o2 && o3 != o4) return true;  // Proper crossing.

  // Collinear touching cases.
  if (o1 == 0 && OnSegment(s.a, s.b, t.a)) return true;
  if (o2 == 0 && OnSegment(s.a, s.b, t.b)) return true;
  if (o3 == 0 && OnSegment(t.a, t.b, s.a)) return true;
  if (o4 == 0 && OnSegment(t.a, t.b, s.b)) return true;
  return false;
}

std::optional<Point2> SegmentIntersection(const Segment& s, const Segment& t) {
  const Point2 r = s.b - s.a;
  const Point2 q = t.b - t.a;
  const double denom = Cross(r, q);
  const Point2 diff = t.a - s.a;
  if (std::fabs(denom) <= kGeomEpsilon) {
    // Parallel. Check collinear overlap and return one shared point.
    if (std::fabs(Cross(diff, r)) > kGeomEpsilon) return std::nullopt;
    if (OnSegment(s.a, s.b, t.a)) return t.a;
    if (OnSegment(s.a, s.b, t.b)) return t.b;
    if (OnSegment(t.a, t.b, s.a)) return s.a;
    return std::nullopt;
  }
  const double u = Cross(diff, q) / denom;
  const double v = Cross(diff, r) / denom;
  if (u < -kGeomEpsilon || u > 1.0 + kGeomEpsilon || v < -kGeomEpsilon ||
      v > 1.0 + kGeomEpsilon) {
    return std::nullopt;
  }
  return s.a + r * std::clamp(u, 0.0, 1.0);
}

}  // namespace modb::geo
