#include "geo/polyline.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace modb::geo {

Polyline::Polyline(std::vector<Point2> points) {
  points_.reserve(points.size());
  for (const Point2& p : points) {
    if (!points_.empty() && ApproxEqual(points_.back(), p)) continue;
    points_.push_back(p);
  }
  cumulative_.reserve(points_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) acc += Distance(points_[i - 1], points_[i]);
    cumulative_.push_back(acc);
    bbox_.Expand(points_[i]);
  }
}

std::size_t Polyline::SegmentIndexAt(double s) const {
  assert(Valid());
  s = std::clamp(s, 0.0, Length());
  // First vertex with cumulative length >= s; the segment ends there.
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), s);
  std::size_t idx = static_cast<std::size_t>(it - cumulative_.begin());
  if (idx > 0) --idx;
  return std::min(idx, num_segments() - 1);
}

Point2 Polyline::PointAtDistance(double s) const {
  assert(Valid());
  s = std::clamp(s, 0.0, Length());
  return PointOnSegment(SegmentIndexAt(s), s);
}

Point2 Polyline::PointOnSegment(std::size_t i, double s) const {
  const double seg_len = cumulative_[i + 1] - cumulative_[i];
  const double t = seg_len > 0.0 ? (s - cumulative_[i]) / seg_len : 0.0;
  return Lerp(points_[i], points_[i + 1], t);
}

Point2 Polyline::TangentAtDistance(double s) const {
  assert(Valid());
  const std::size_t i = SegmentIndexAt(std::clamp(s, 0.0, Length()));
  const Point2 d = points_[i + 1] - points_[i];
  const double n = d.Norm();
  return n > 0.0 ? d / n : Point2{1.0, 0.0};
}

double Polyline::ProjectPoint(const Point2& p, double* out_distance) const {
  assert(Valid());
  double best_dist = std::numeric_limits<double>::infinity();
  double best_s = 0.0;
  for (std::size_t i = 0; i < num_segments(); ++i) {
    const Segment seg(points_[i], points_[i + 1]);
    const double t = seg.ClosestParam(p);
    const Point2 q = seg.At(t);
    const double d = Distance(p, q);
    if (d < best_dist) {
      best_dist = d;
      best_s = cumulative_[i] + t * (cumulative_[i + 1] - cumulative_[i]);
    }
  }
  if (out_distance != nullptr) *out_distance = best_dist;
  return best_s;
}

Box2 Polyline::BoundingBoxBetween(double s0, double s1) const {
  assert(Valid());
  if (s0 > s1) std::swap(s0, s1);
  s0 = std::clamp(s0, 0.0, Length());
  s1 = std::clamp(s1, 0.0, Length());
  Box2 box;
  box.Expand(PointAtDistance(s0));
  box.Expand(PointAtDistance(s1));
  const std::size_t i0 = SegmentIndexAt(s0);
  const std::size_t i1 = SegmentIndexAt(s1);
  // Interior vertices strictly between s0 and s1.
  for (std::size_t v = i0 + 1; v <= i1; ++v) {
    if (cumulative_[v] >= s0 && cumulative_[v] <= s1) box.Expand(points_[v]);
  }
  return box;
}

void Polyline::SubPolyline(double s0, double s1,
                           std::vector<Point2>* out) const {
  assert(Valid());
  if (s0 > s1) std::swap(s0, s1);
  s0 = std::clamp(s0, 0.0, Length());
  s1 = std::clamp(s1, 0.0, Length());
  const std::size_t i0 = SegmentIndexAt(s0);
  const std::size_t i1 = SegmentIndexAt(s1);
  out->clear();
  out->push_back(PointOnSegment(i0, s0));
  for (std::size_t v = i0 + 1; v <= i1; ++v) {
    if (cumulative_[v] > s0 && cumulative_[v] < s1) out->push_back(points_[v]);
  }
  const Point2 end = PointOnSegment(i1, s1);
  if (!ApproxEqual(out->back(), end)) out->push_back(end);
}

std::vector<std::pair<double, double>> Polyline::IntervalsInBox(
    const Box2& box) const {
  std::vector<std::pair<double, double>> out;
  if (box.Empty() || !bbox_.Intersects(box)) return out;
  for (std::size_t i = 0; i < num_segments(); ++i) {
    // Liang–Barsky: narrow the segment parameter u to the box, axis by axis.
    double u0 = 0.0;
    double u1 = 1.0;
    auto clip = [&](double p, double d, double lo, double hi) {
      if (d == 0.0) return p >= lo && p <= hi;
      double a = (lo - p) / d;
      double b = (hi - p) / d;
      if (a > b) std::swap(a, b);
      u0 = std::max(u0, a);
      u1 = std::min(u1, b);
      return u0 <= u1;
    };
    const Point2& p = points_[i];
    const Point2& q = points_[i + 1];
    if (!clip(p.x, q.x - p.x, box.min.x, box.max.x) ||
        !clip(p.y, q.y - p.y, box.min.y, box.max.y)) {
      continue;
    }
    // Whole-segment ends take the vertex arc lengths verbatim.
    const double len = cumulative_[i + 1] - cumulative_[i];
    const double s0 = u0 <= 0.0 ? cumulative_[i] : cumulative_[i] + u0 * len;
    const double s1 =
        u1 >= 1.0 ? cumulative_[i + 1] : cumulative_[i] + u1 * len;
    if (!out.empty() && out.back().second >= s0) {
      out.back().second = std::max(out.back().second, s1);
    } else {
      out.emplace_back(s0, s1);
    }
  }
  return out;
}

}  // namespace modb::geo
