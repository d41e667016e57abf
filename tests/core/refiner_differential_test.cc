// Seeded differential of the refine kernel (core::Refiner) and the geo
// predicates it runs against a frozen copy of the predicates as they stood
// before the kernel: hypot-scaled orientation and boundary tests, one
// freshly built sub-polyline per question, and each question answered on
// its own. Every answer must match bit for bit: relations, MAY
// probabilities, window MAY and MUST-at-some-time, nearest distance
// brackets and uncertainty spans, over winding routes, a grid whose streets
// lie exactly on region edges, a two-lap loop, and points and segments
// within 1e-12 to 1e-6 of a region edge.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/refiner.h"
#include "core/uncertainty.h"
#include "geo/polygon.h"
#include "geo/polyline.h"
#include "geo/route_network.h"
#include "geo/segment.h"
#include "util/rng.h"

namespace modb::core {
namespace {

using geo::kGeomEpsilon;
using geo::Point2;
using geo::Polygon;
using geo::Polyline;
using geo::Segment;

// ---------------------------------------------------------------------------
// The frozen reference. Test-only: nothing in src/ may call it.
namespace frozen {

int Orientation(const Point2& a, const Point2& b, const Point2& c) {
  const double v = geo::Cross(b - a, c - a);
  const double scale = std::max({1.0, (b - a).Norm(), (c - a).Norm()});
  if (std::fabs(v) <= kGeomEpsilon * scale) return 0;
  return v > 0 ? 1 : -1;
}

bool OnSegment(const Point2& a, const Point2& b, const Point2& p) {
  return p.x <= std::max(a.x, b.x) + kGeomEpsilon &&
         p.x >= std::min(a.x, b.x) - kGeomEpsilon &&
         p.y <= std::max(a.y, b.y) + kGeomEpsilon &&
         p.y >= std::min(a.y, b.y) - kGeomEpsilon;
}

bool SegmentsIntersect(const Segment& s, const Segment& t) {
  const int o1 = frozen::Orientation(s.a, s.b, t.a);
  const int o2 = frozen::Orientation(s.a, s.b, t.b);
  const int o3 = frozen::Orientation(t.a, t.b, s.a);
  const int o4 = frozen::Orientation(t.a, t.b, s.b);
  if (o1 != o2 && o3 != o4) return true;
  if (o1 == 0 && OnSegment(s.a, s.b, t.a)) return true;
  if (o2 == 0 && OnSegment(s.a, s.b, t.b)) return true;
  if (o3 == 0 && OnSegment(t.a, t.b, s.a)) return true;
  if (o4 == 0 && OnSegment(t.a, t.b, s.b)) return true;
  return false;
}

bool ProperCrossing(const Segment& s, const Segment& t) {
  const int o1 = frozen::Orientation(s.a, s.b, t.a);
  const int o2 = frozen::Orientation(s.a, s.b, t.b);
  const int o3 = frozen::Orientation(t.a, t.b, s.a);
  const int o4 = frozen::Orientation(t.a, t.b, s.b);
  return o1 * o2 < 0 && o3 * o4 < 0;
}

std::optional<Point2> SegmentIntersection(const Segment& s, const Segment& t) {
  const Point2 r = s.b - s.a;
  const Point2 q = t.b - t.a;
  const double denom = geo::Cross(r, q);
  const Point2 diff = t.a - s.a;
  if (std::fabs(denom) <= kGeomEpsilon) {
    if (std::fabs(geo::Cross(diff, r)) > kGeomEpsilon) return std::nullopt;
    if (OnSegment(s.a, s.b, t.a)) return t.a;
    if (OnSegment(s.a, s.b, t.b)) return t.b;
    if (OnSegment(t.a, t.b, s.a)) return s.a;
    return std::nullopt;
  }
  const double u = geo::Cross(diff, q) / denom;
  const double v = geo::Cross(diff, r) / denom;
  if (u < -kGeomEpsilon || u > 1.0 + kGeomEpsilon || v < -kGeomEpsilon ||
      v > 1.0 + kGeomEpsilon) {
    return std::nullopt;
  }
  return s.a + r * std::clamp(u, 0.0, 1.0);
}

Point2 At(const Segment& s, double t) {
  return geo::Lerp(s.a, s.b, std::clamp(t, 0.0, 1.0));
}

double DistanceTo(const Segment& s, const Point2& p) {
  const Point2 d = s.b - s.a;
  const double len2 = d.NormSquared();
  const double t = len2 <= kGeomEpsilon * kGeomEpsilon
                       ? 0.0
                       : std::clamp(geo::Dot(p - s.a, d) / len2, 0.0, 1.0);
  return (p - At(s, t)).Norm();
}

Segment Edge(const Polygon& g, std::size_t i) {
  const std::vector<Point2>& v = g.vertices();
  return Segment(v[i], v[(i + 1) % v.size()]);
}

bool Contains(const Polygon& g, const Point2& p) {
  if (!g.Valid() || !g.BoundingBox().Contains(p)) return false;
  const std::vector<Point2>& v = g.vertices();
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (DistanceTo(Edge(g, i), p) <= kGeomEpsilon) return true;
  }
  bool inside = false;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Point2& a = v[i];
    const Point2& b = v[(i + 1) % v.size()];
    const bool crosses = (a.y > p.y) != (b.y > p.y);
    if (!crosses) continue;
    const double x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
    if (p.x < x_at) inside = !inside;
  }
  return inside;
}

bool Intersects(const Polygon& g, const Segment& s) {
  if (!g.Valid()) return false;
  if (!g.BoundingBox().Intersects(s.BoundingBox())) return false;
  if (Contains(g, s.a) || Contains(g, s.b)) return true;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (frozen::SegmentsIntersect(Edge(g, i), s)) return true;
  }
  return false;
}

bool ContainsSegment(const Polygon& g, const Segment& s) {
  if (!g.Valid()) return false;
  if (!Contains(g, s.a) || !Contains(g, s.b)) return false;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (ProperCrossing(Edge(g, i), s)) return false;
  }
  return Contains(g, At(s, 0.5));
}

double IntersectionLength(const Polygon& g, const Segment& s) {
  if (!g.Valid()) return 0.0;
  const double total = (s.a - s.b).Norm();
  if (total <= kGeomEpsilon) return 0.0;
  if (!g.BoundingBox().Intersects(s.BoundingBox())) return 0.0;
  std::vector<double> params = {0.0, 1.0};
  const Point2 dir = s.b - s.a;
  const double len2 = dir.NormSquared();
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto hit = frozen::SegmentIntersection(s, Edge(g, i));
    if (!hit.has_value()) continue;
    params.push_back(std::clamp(geo::Dot(*hit - s.a, dir) / len2, 0.0, 1.0));
  }
  std::sort(params.begin(), params.end());
  double inside = 0.0;
  for (std::size_t i = 0; i + 1 < params.size(); ++i) {
    const double span = params[i + 1] - params[i];
    if (span <= kGeomEpsilon) continue;
    if (Contains(g, At(s, 0.5 * (params[i] + params[i + 1])))) inside += span;
  }
  return inside * total;
}

// A polyline's arc-length table, rebuilt as Polyline's constructor does.
struct Curve {
  explicit Curve(const Polyline& line) : points(line.points()) {
    double acc = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i > 0) acc += (points[i - 1] - points[i]).Norm();
      cumulative.push_back(acc);
    }
  }
  double Length() const { return cumulative.back(); }
  std::size_t SegmentIndexAt(double s) const {
    s = std::clamp(s, 0.0, Length());
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), s);
    std::size_t idx = static_cast<std::size_t>(it - cumulative.begin());
    if (idx > 0) --idx;
    return std::min(idx, points.size() - 2);
  }
  Point2 PointAtDistance(double s) const {
    s = std::clamp(s, 0.0, Length());
    const std::size_t i = SegmentIndexAt(s);
    const double seg_len = cumulative[i + 1] - cumulative[i];
    const double t = seg_len > 0.0 ? (s - cumulative[i]) / seg_len : 0.0;
    return geo::Lerp(points[i], points[i + 1], t);
  }
  std::vector<Point2> SubPolyline(double s0, double s1) const {
    if (s0 > s1) std::swap(s0, s1);
    s0 = std::clamp(s0, 0.0, Length());
    s1 = std::clamp(s1, 0.0, Length());
    std::vector<Point2> out;
    out.push_back(PointAtDistance(s0));
    const std::size_t i0 = SegmentIndexAt(s0);
    const std::size_t i1 = SegmentIndexAt(s1);
    for (std::size_t v = i0 + 1; v <= i1; ++v) {
      if (cumulative[v] > s0 && cumulative[v] < s1) out.push_back(points[v]);
    }
    const Point2 end = PointAtDistance(s1);
    if (!geo::ApproxEqual(out.back(), end)) out.push_back(end);
    return out;
  }

  std::vector<Point2> points;
  std::vector<double> cumulative;
};

bool SubInside(const Curve& c, double s0, double s1, const Polygon& g) {
  const std::vector<Point2> sub = c.SubPolyline(s0, s1);
  if (sub.size() == 1) return Contains(g, sub.front());
  for (std::size_t i = 0; i + 1 < sub.size(); ++i) {
    if (!ContainsSegment(g, Segment(sub[i], sub[i + 1]))) return false;
  }
  return true;
}

bool SubIntersects(const Curve& c, double s0, double s1, const Polygon& g) {
  const std::vector<Point2> sub = c.SubPolyline(s0, s1);
  if (sub.size() == 1) return Contains(g, sub.front());
  for (std::size_t i = 0; i + 1 < sub.size(); ++i) {
    if (Intersects(g, Segment(sub[i], sub[i + 1]))) return true;
  }
  return false;
}

double SubLengthInside(const Curve& c, double s0, double s1,
                       const Polygon& g) {
  const std::vector<Point2> sub = c.SubPolyline(s0, s1);
  double inside = 0.0;
  for (std::size_t i = 0; i + 1 < sub.size(); ++i) {
    inside += IntersectionLength(g, Segment(sub[i], sub[i + 1]));
  }
  return inside;
}

double SubDistance(const Curve& c, const Point2& p, double s0, double s1) {
  const std::vector<Point2> sub = c.SubPolyline(s0, s1);
  if (sub.size() == 1) return (p - sub.front()).Norm();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < sub.size(); ++i) {
    best = std::min(best, DistanceTo(Segment(sub[i], sub[i + 1]), p));
  }
  return best;
}

double SubMaxDistance(const Curve& c, const Point2& p, double s0, double s1) {
  double worst = 0.0;
  for (const Point2& q : c.SubPolyline(s0, s1)) {
    worst = std::max(worst, (p - q).Norm());
  }
  return worst;
}

RegionRelation Classify(const UncertaintyInterval& iv, const Curve& c,
                        const Polygon& g) {
  if (SubInside(c, iv.lo, iv.hi, g)) return RegionRelation::kMustBeIn;
  if (SubIntersects(c, iv.lo, iv.hi, g)) return RegionRelation::kMayBeIn;
  return RegionRelation::kOutside;
}

double Probability(const UncertaintyInterval& iv, const Curve& c,
                   const Polygon& g) {
  const double width = iv.Width();
  if (width <= 1e-12) {
    return Contains(g, c.PointAtDistance(iv.lo)) ? 1.0 : 0.0;
  }
  return std::clamp(SubLengthInside(c, iv.lo, iv.hi, g) / width, 0.0, 1.0);
}

UncertaintyInterval Span(const PositionAttribute& attr, const geo::Route& r,
                         Time t1, Time t2) {
  if (t1 > t2) std::swap(t1, t2);
  UncertaintyInterval span = ComputeUncertainty(attr, r, t1);
  auto sample = [&](Time t) {
    const UncertaintyInterval iv = ComputeUncertainty(attr, r, t);
    span.lo = std::min(span.lo, iv.lo);
    span.hi = std::max(span.hi, iv.hi);
  };
  sample(t2);
  const CriticalTimes critical = BoundCriticalTimes(attr);
  const std::vector<Duration> offsets(critical.begin(), critical.end());
  for (Duration offset : offsets) {
    const Time t = attr.start_time + offset;
    if (t > t1 && t < t2) sample(t);
  }
  return span;
}

// The DURING evaluation as the interval query ran it: exact MAY over the
// swept span, MUST sampled at lo, lo + step, ... clamped to hi.
RegionRelation During(const PositionAttribute& attr, const geo::Route& r,
                      const Curve& c, const Polygon& g, Time lo, Time hi,
                      Duration step) {
  const UncertaintyInterval span = Span(attr, r, lo, hi);
  if (!SubIntersects(c, span.lo, span.hi, g)) return RegionRelation::kOutside;
  bool must = false;
  for (Time t = lo; !must; t += step) {
    const Time clamped = std::min(t, hi);
    must = Classify(ComputeUncertainty(attr, r, clamped), c, g) ==
           RegionRelation::kMustBeIn;
    if (clamped >= hi) break;
  }
  return must ? RegionRelation::kMustBeIn : RegionRelation::kMayBeIn;
}

}  // namespace frozen
// ---------------------------------------------------------------------------

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// log-uniform in [1e-12, 1e-6], either sign.
double NearOffset(util::Rng& rng) {
  const double d = std::pow(10.0, rng.Uniform(-12.0, -6.0));
  return rng.Bernoulli(0.5) ? d : -d;
}

constexpr double kSpacing = 10.0;
constexpr std::size_t kStreets = 12;

class RefinerDifferentialTest : public testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    network_.AddGridNetwork(kStreets, kStreets, kSpacing);
    util::Rng rng(900 + GetParam());
    for (int i = 0; i < 4; ++i) {
      network_.AddRandomWindingRoute(
          rng, {rng.Uniform(10.0, 100.0), rng.Uniform(10.0, 100.0)}, 40, 3.0,
          0.9);
    }
    network_.AddLoopRoute(20.0, 20.0, 70.0, 60.0, 2);
    for (const geo::Route& route : network_.routes()) {
      curves_.emplace_back(route.shape());
    }
  }

  // One query region of the kinds the differential covers.
  Polygon MakeRegion(util::Rng& rng) const {
    const double extent = kSpacing * (kStreets - 1);
    auto street = [&] {
      return kSpacing * static_cast<double>(rng.UniformInt(0, kStreets - 1));
    };
    switch (rng.UniformInt(0, 7)) {
      case 0: {  // edges exactly on streets
        double x0 = street(), x1 = street(), y0 = street(), y1 = street();
        if (x0 == x1) x1 = x0 + kSpacing;
        if (y0 == y1) y1 = y0 + kSpacing;
        return Polygon::Rectangle(x0, y0, x1, y1);
      }
      case 1: {  // edges within 1e-12..1e-6 of streets
        const double x0 = street() + NearOffset(rng);
        const double y0 = street() + NearOffset(rng);
        return Polygon::Rectangle(x0, y0, x0 + kSpacing * rng.UniformInt(1, 4),
                                  y0 + kSpacing * rng.UniformInt(1, 4));
      }
      case 2: {  // random rectangle
        const double x = rng.Uniform(-5.0, extent);
        const double y = rng.Uniform(-5.0, extent);
        return Polygon::Rectangle(x, y, x + rng.Uniform(0.5, 40.0),
                                  y + rng.Uniform(0.5, 40.0));
      }
      case 3: {  // 1e-9 wide, on or next to a street
        const double x = rng.Bernoulli(0.5) ? street() + NearOffset(rng)
                                            : rng.Uniform(0.0, extent);
        const double y = rng.Uniform(-5.0, extent);
        return rng.Bernoulli(0.5)
                   ? Polygon::Rectangle(x, y, x + 1e-9, y + 30.0)
                   : Polygon::Rectangle(y, x, y + 30.0, x + 1e-9);
      }
      case 4: {  // regular 3..12-gon
        return Polygon::RegularNGon(
            {rng.Uniform(0.0, extent), rng.Uniform(0.0, extent)},
            rng.Uniform(1.0, 30.0),
            static_cast<std::size_t>(rng.UniformInt(3, 12)));
      }
      case 5: {  // random star-shaped (non-convex) polygon, 5..12 vertices
        const Point2 c{rng.Uniform(0.0, extent), rng.Uniform(0.0, extent)};
        const auto n = static_cast<std::size_t>(rng.UniformInt(5, 12));
        std::vector<Point2> v;
        for (std::size_t i = 0; i < n; ++i) {
          const double theta = 2.0 * M_PI * static_cast<double>(i) / n;
          const double r = rng.Uniform(3.0, 25.0);
          v.push_back({c.x + r * std::cos(theta), c.y + r * std::sin(theta)});
        }
        return Polygon(std::move(v));
      }
      case 6: {  // fixed non-convex comb with teeth edges on streets
        const double x0 = street();
        const double y0 = street();
        return Polygon({{x0, y0},
                        {x0 + 40.0, y0},
                        {x0 + 40.0, y0 + 30.0},
                        {x0 + 30.0, y0 + 30.0},
                        {x0 + 30.0, y0 + 10.0},
                        {x0 + 20.0, y0 + 10.0},
                        {x0 + 20.0, y0 + 30.0},
                        {x0, y0 + 30.0}});
      }
      default: {  // rectangle corner near a winding-route vertex
        const geo::Route& r = network_.route(static_cast<geo::RouteId>(
            rng.UniformInt(kStreets * 2, network_.size() - 1)));
        const std::vector<Point2>& pts = r.shape().points();
        const Point2 p = pts[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(pts.size()) - 1))];
        const double x = p.x + NearOffset(rng);
        const double y = p.y + NearOffset(rng);
        return Polygon::Rectangle(x, y, x + rng.Uniform(1.0, 20.0),
                                  y + rng.Uniform(1.0, 20.0));
      }
    }
  }

  // A route through the region's neighbourhood and an arc length on it
  // there, as an index probe would hand over; nullopt when no route passes.
  std::optional<std::pair<geo::RouteId, double>> NearRegion(
      util::Rng& rng, const Polygon& region) const {
    geo::Box2 near = region.BoundingBox();
    near.Inflate(6.0);
    std::vector<std::pair<geo::RouteId, std::pair<double, double>>> hits;
    for (const geo::Route& route : network_.routes()) {
      for (const auto& span : route.shape().IntervalsInBox(near)) {
        hits.emplace_back(route.id(), span);
      }
    }
    if (hits.empty()) return std::nullopt;
    const auto& [id, span] = hits[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(hits.size()) - 1))];
    return std::make_pair(id, rng.Uniform(span.first, span.second));
  }

  // `near_s` >= 0 is an arc length near the region; most such attributes
  // start there, the rest at a route end, a vertex or anywhere.
  PositionAttribute MakeAttr(util::Rng& rng, geo::RouteId route_id,
                             double near_s) const {
    const geo::Route& route = network_.route(route_id);
    const frozen::Curve& c = curves_[route_id];
    PositionAttribute a;
    a.route = route_id;
    a.start_time = rng.Uniform(0.0, 10.0);
    a.policy = static_cast<PolicyKind>(rng.UniformInt(0, 6));
    a.direction = rng.Bernoulli(0.5) ? TravelDirection::kForward
                                     : TravelDirection::kBackward;
    switch (near_s >= 0.0 && rng.Bernoulli(0.75) ? 4
                                                 : rng.UniformInt(0, 3)) {
      case 4: a.start_route_distance = near_s; break;
      case 0: a.start_route_distance = 0.0; break;
      case 1: a.start_route_distance = route.Length(); break;
      case 2:
        a.start_route_distance = c.cumulative[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(c.cumulative.size()) -
                                  1))];
        break;
      default: a.start_route_distance = rng.Uniform(0.0, route.Length());
    }
    a.start_position = route.PointAt(a.start_route_distance);
    a.speed = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(0.1, 2.0);
    a.max_speed = rng.Bernoulli(0.15) ? 0.0 : a.speed + rng.Uniform(0.0, 1.5);
    a.update_cost = rng.Uniform(0.5, 10.0);
    a.fixed_threshold = rng.Uniform(0.5, 5.0);
    a.period = rng.Uniform(0.5, 5.0);
    a.step_threshold = rng.Uniform(0.5, 5.0);
    return a;
  }

  geo::RouteNetwork network_;
  std::vector<frozen::Curve> curves_;
};

// Predicates on points and segments near polygon edges, and the kernel on
// candidate stretches. 100k cases per seed, four seeds.
TEST_P(RefinerDifferentialTest, MatchesFrozenPredicatesBitForBit) {
  util::Rng rng(7000 + GetParam());
  Refiner refiner;
  std::size_t mismatches = 0;
  std::string first;
  auto check = [&](bool same, const char* what, int i) {
    if (same) return;
    if (mismatches++ == 0) first = std::string(what) + " at case " +
                                   std::to_string(i);
  };
  // Answers seen, so that a differential that never reaches a MUST, a MAY
  // or a sampled window MUST fails instead of passing vacuously.
  std::size_t relations[3] = {0, 0, 0};
  std::size_t during[3] = {0, 0, 0};
  std::size_t near_inside = 0;
  constexpr int kCases = 100000;
  for (int i = 0; i < kCases; ++i) {
    const Polygon region = MakeRegion(rng);

    // Geo predicates on a point and a segment near one of the region's
    // edges.
    const std::size_t e = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(region.size()) - 1));
    const Segment edge = region.Edge(e);
    const Point2 dir = edge.b - edge.a;
    const Point2 normal = Point2{-dir.y, dir.x} / dir.Norm();
    const Point2 p = edge.At(rng.Uniform(-0.1, 1.1)) + normal * NearOffset(rng);
    const Point2 q = rng.Bernoulli(0.5)
                         ? edge.At(rng.Uniform(0.0, 1.0)) +
                               normal * NearOffset(rng)
                         : p + Point2{rng.Uniform(-20.0, 20.0),
                                      rng.Uniform(-20.0, 20.0)};
    const Segment s(p, q);
    const bool p_inside = region.Contains(p);
    near_inside += p_inside ? 1 : 0;
    check(p_inside == frozen::Contains(region, p), "Contains", i);
    check(region.ContainsSegment(s) == frozen::ContainsSegment(region, s),
          "ContainsSegment", i);
    check(region.Intersects(s) == frozen::Intersects(region, s), "Intersects",
          i);
    check(Bits(region.IntersectionLength(s)) ==
              Bits(frozen::IntersectionLength(region, s)),
          "IntersectionLength", i);
    check(geo::Orientation(edge.a, edge.b, p) ==
              frozen::Orientation(edge.a, edge.b, p),
          "Orientation", i);
    check(geo::SegmentsIntersect(edge, s) == frozen::SegmentsIntersect(edge, s),
          "SegmentsIntersect", i);

    // The kernel on one candidate, mostly one near the region.
    auto route_id = static_cast<geo::RouteId>(
        rng.UniformInt(0, static_cast<std::int64_t>(network_.size()) - 1));
    double near_s = -1.0;
    if (rng.Bernoulli(0.8)) {
      if (const auto near = NearRegion(rng, region); near.has_value()) {
        route_id = near->first;
        near_s = near->second;
      }
    }
    const geo::Route& route = network_.route(route_id);
    const frozen::Curve& curve = curves_[route_id];
    const PositionAttribute attr = MakeAttr(rng, route_id, near_s);
    const Time t =
        attr.start_time + rng.Uniform(0.0, near_s >= 0.0 ? 8.0 : 40.0);
    const UncertaintyInterval iv = ComputeUncertainty(attr, route, t);

    double may_probability = -1.0;
    const RegionRelation rel =
        refiner.Classify(region, route.shape(), iv, &may_probability);
    check(rel == frozen::Classify(iv, curve, region), "Classify", i);
    ++relations[static_cast<int>(rel)];
    const double expected_p = frozen::Probability(iv, curve, region);
    if (rel == RegionRelation::kMayBeIn) {
      check(Bits(may_probability) == Bits(expected_p), "MAY probability", i);
    }
    check(Bits(refiner.Probability(region, route.shape(), iv)) ==
              Bits(expected_p),
          "Probability", i);
    check(refiner.Inside(region, route.shape(), iv) ==
              frozen::SubInside(curve, iv.lo, iv.hi, region),
          "Inside", i);

    const Point2 at = rng.Bernoulli(0.5)
                          ? p
                          : Point2{rng.Uniform(-10.0, 120.0),
                                   rng.Uniform(-10.0, 120.0)};
    const DistanceBracket d = refiner.Distances(at, route.shape(), iv);
    check(Bits(d.min) == Bits(frozen::SubDistance(curve, at, iv.lo, iv.hi)),
          "nearest min", i);
    check(Bits(d.max) == Bits(frozen::SubMaxDistance(curve, at, iv.lo, iv.hi)),
          "nearest max", i);

    const Time t1 =
        attr.start_time + rng.Uniform(-2.0, near_s >= 0.0 ? 6.0 : 30.0);
    const Time t2 = t1 + (rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.0, 8.0));
    const UncertaintyInterval span =
        ComputeUncertaintySpan(attr, route, t1, t2);
    const UncertaintyInterval frozen_span = frozen::Span(attr, route, t1, t2);
    check(Bits(span.lo) == Bits(frozen_span.lo) &&
              Bits(span.hi) == Bits(frozen_span.hi),
          "ComputeUncertaintySpan", i);

    const Time lo = std::max(t1, attr.start_time);
    if (lo <= t2) {
      // The interval query's step: its own, or 1e-9 for an empty window.
      const Duration step = lo == t2              ? 1e-9
                            : rng.Bernoulli(0.5) ? 1.0
                                                 : rng.Uniform(0.05, 3.0);
      const RegionRelation window =
          refiner.ClassifyDuring(region, attr, route, lo, t2, step);
      check(window == frozen::During(attr, route, curve, region, lo, t2, step),
            "ClassifyDuring", i);
      ++during[static_cast<int>(window)];
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
  for (int r = 0; r < 3; ++r) {
    EXPECT_GT(relations[r], 5000u) << RegionRelationName(RegionRelation(r));
    EXPECT_GT(during[r], 5000u) << RegionRelationName(RegionRelation(r));
  }
  EXPECT_GT(near_inside, kCases / 5);
  EXPECT_LT(near_inside, kCases * 4 / 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinerDifferentialTest,
                         testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace modb::core
