#ifndef MODB_GEO_POINT_H_
#define MODB_GEO_POINT_H_

#include <cmath>
#include <string>

namespace modb::geo {

/// Tolerance used by the geometric predicates in this module.
inline constexpr double kGeomEpsilon = 1e-9;

/// 2-D point / vector with double coordinates.
///
/// Used both as a position (point) and as a displacement (vector); the
/// operators below cover both readings.
struct Point2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Point2() = default;
  constexpr Point2(double xx, double yy) : x(xx), y(yy) {}

  constexpr Point2 operator+(const Point2& o) const { return {x + o.x, y + o.y}; }
  constexpr Point2 operator-(const Point2& o) const { return {x - o.x, y - o.y}; }
  constexpr Point2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Point2 operator/(double s) const { return {x / s, y / s}; }
  Point2& operator+=(const Point2& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  Point2& operator-=(const Point2& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }

  /// Euclidean norm when read as a vector.
  double Norm() const { return std::hypot(x, y); }
  /// Squared norm (avoids the sqrt for comparisons).
  constexpr double NormSquared() const { return x * x + y * y; }

  std::string ToString() const;
};

constexpr Point2 operator*(double s, const Point2& p) { return p * s; }

/// Dot product of `a` and `b` read as vectors.
constexpr double Dot(const Point2& a, const Point2& b) {
  return a.x * b.x + a.y * b.y;
}

/// 2-D cross product (z component): > 0 when `b` is counter-clockwise of `a`.
constexpr double Cross(const Point2& a, const Point2& b) {
  return a.x * b.y - a.y * b.x;
}

/// Euclidean distance between two points.
inline double Distance(const Point2& a, const Point2& b) {
  return (a - b).Norm();
}

/// Squared Euclidean distance between two points.
constexpr double DistanceSquared(const Point2& a, const Point2& b) {
  return (a - b).NormSquared();
}

/// Exactly `d.Norm() <= bound`, without the `std::hypot` call outside a
/// narrow band: the norm is at least max(|x|, |y|) and at most |x| + |y|,
/// so only a vector with max(|x|, |y|) <= bound < 2 (|x| + |y|) (or a NaN
/// component) pays for the exact norm.
inline bool NormAtMost(const Point2& d, double bound) {
  const double ax = std::fabs(d.x);
  const double ay = std::fabs(d.y);
  if (ax > bound || ay > bound) return false;
  if (ax + ay <= 0.5 * bound) return true;
  return d.Norm() <= bound;
}

/// Component-wise approximate equality within `eps`.
inline bool ApproxEqual(const Point2& a, const Point2& b,
                        double eps = kGeomEpsilon) {
  return std::fabs(a.x - b.x) <= eps && std::fabs(a.y - b.y) <= eps;
}

/// Exact equality (used by containers and tests on constructed data).
constexpr bool operator==(const Point2& a, const Point2& b) {
  return a.x == b.x && a.y == b.y;
}
constexpr bool operator!=(const Point2& a, const Point2& b) { return !(a == b); }

/// Linear interpolation: `a` at t=0, `b` at t=1.
constexpr Point2 Lerp(const Point2& a, const Point2& b, double t) {
  return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

}  // namespace modb::geo

#endif  // MODB_GEO_POINT_H_
