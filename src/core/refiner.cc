#include "core/refiner.h"

#include <algorithm>
#include <limits>

#include "geo/segment.h"

namespace modb::core {

bool Refiner::SegmentsInside(const geo::Polygon& region) const {
  for (std::size_t i = 0; i + 1 < sub_.size(); ++i) {
    if (!region.ContainsSegment(geo::Segment(sub_[i], sub_[i + 1]), true,
                                true)) {
      return false;
    }
  }
  return true;
}

bool Refiner::SegmentsMeet(const geo::Polygon& region) const {
  for (std::size_t i = 0; i + 1 < sub_.size(); ++i) {
    if (region.Intersects(geo::Segment(sub_[i], sub_[i + 1]), false,
                          false)) {
      return true;
    }
  }
  return false;
}

RegionRelation Refiner::Classify(const geo::Polygon& region,
                                 const geo::Polyline& shape,
                                 const UncertaintyInterval& interval,
                                 double* may_probability) {
  shape.SubPolyline(interval.lo, interval.hi, &sub_);
  // MUST needs every vertex inside; a segment with a vertex inside meets
  // the region. So the scan stops once it has seen one vertex in and one
  // out.
  bool all_in = true;
  bool any_in = false;
  for (const geo::Point2& v : sub_) {
    if (region.Contains(v)) {
      any_in = true;
    } else {
      all_in = false;
    }
    if (any_in && !all_in) break;
  }
  RegionRelation rel;
  if (all_in) {
    rel = SegmentsInside(region) ? RegionRelation::kMustBeIn
                                 : RegionRelation::kMayBeIn;
  } else if (any_in || SegmentsMeet(region)) {
    rel = RegionRelation::kMayBeIn;
  } else {
    rel = RegionRelation::kOutside;
  }
  if (rel == RegionRelation::kMayBeIn && may_probability != nullptr) {
    *may_probability = LoadedProbability(region, shape, interval);
  }
  return rel;
}

bool Refiner::Inside(const geo::Polygon& region, const geo::Polyline& shape,
                     const UncertaintyInterval& interval) {
  shape.SubPolyline(interval.lo, interval.hi, &sub_);
  for (const geo::Point2& v : sub_) {
    if (!region.Contains(v)) return false;
  }
  return SegmentsInside(region);
}

bool Refiner::Meets(const geo::Polygon& region, const geo::Polyline& shape,
                    const UncertaintyInterval& interval) {
  shape.SubPolyline(interval.lo, interval.hi, &sub_);
  for (const geo::Point2& v : sub_) {
    if (region.Contains(v)) return true;
  }
  return SegmentsMeet(region);
}

double Refiner::Probability(const geo::Polygon& region,
                            const geo::Polyline& shape,
                            const UncertaintyInterval& interval) {
  shape.SubPolyline(interval.lo, interval.hi, &sub_);
  return LoadedProbability(region, shape, interval);
}

double Refiner::LoadedProbability(const geo::Polygon& region,
                                  const geo::Polyline& shape,
                                  const UncertaintyInterval& interval) {
  const double width = interval.Width();
  if (width <= 1e-12) {
    return region.Contains(shape.PointAtDistance(interval.lo)) ? 1.0 : 0.0;
  }
  double inside = 0.0;
  for (std::size_t i = 0; i + 1 < sub_.size(); ++i) {
    inside += region.IntersectionLength(geo::Segment(sub_[i], sub_[i + 1]),
                                        &params_);
  }
  return std::clamp(inside / width, 0.0, 1.0);
}

RegionRelation Refiner::ClassifyDuring(const geo::Polygon& region,
                                       const PositionAttribute& attr,
                                       const geo::Route& route, Time lo,
                                       Time hi, Duration step) {
  const geo::Polyline& shape = route.shape();
  if (!Meets(region, shape, ComputeUncertaintySpan(attr, route, lo, hi))) {
    return RegionRelation::kOutside;
  }
  for (Time t = lo;;) {
    const Time at = std::min(t, hi);
    if (Inside(region, shape, ComputeUncertainty(attr, route, at))) {
      return RegionRelation::kMustBeIn;
    }
    if (at >= hi) return RegionRelation::kMayBeIn;
    const Time next = t + step;
    if (!(next > t)) {
      // `t` no longer advances: sample the window end and stop.
      return Inside(region, shape, ComputeUncertainty(attr, route, hi))
                 ? RegionRelation::kMustBeIn
                 : RegionRelation::kMayBeIn;
    }
    t = next;
  }
}

DistanceBracket Refiner::Distances(const geo::Point2& p,
                                   const geo::Polyline& shape,
                                   const UncertaintyInterval& interval) {
  shape.SubPolyline(interval.lo, interval.hi, &sub_);
  DistanceBracket d;
  for (const geo::Point2& q : sub_) {
    d.max = std::max(d.max, geo::Distance(p, q));
  }
  if (sub_.size() == 1) {
    d.min = geo::Distance(p, sub_.front());
    return d;
  }
  d.min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < sub_.size(); ++i) {
    d.min = std::min(d.min, geo::Segment(sub_[i], sub_[i + 1]).DistanceTo(p));
  }
  return d;
}

}  // namespace modb::core
