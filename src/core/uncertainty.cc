#include "core/uncertainty.h"

#include <algorithm>

#include "core/bounds.h"
#include "core/refiner.h"

namespace modb::core {

UncertaintyInterval ComputeUncertainty(const PositionAttribute& attr,
                                       const geo::Route& route, Time t) {
  const Duration elapsed = std::max(0.0, t - attr.start_time);
  const double db = attr.DatabaseRouteDistanceAt(t);
  const double slow = SlowDeviationBound(attr, elapsed);
  const double fast = FastDeviationBound(attr, elapsed);
  // "Slow" is behind the database position along the direction of travel;
  // "fast" is ahead. Map both into route-distance coordinates.
  double lo;
  double hi;
  if (attr.direction == TravelDirection::kForward) {
    lo = db - slow;
    hi = db + fast;
  } else {
    lo = db - fast;
    hi = db + slow;
  }
  const double len = route.Length();
  UncertaintyInterval interval;
  interval.lo = std::clamp(lo, 0.0, len);
  interval.hi = std::clamp(hi, 0.0, len);
  if (interval.lo > interval.hi) std::swap(interval.lo, interval.hi);
  return interval;
}

UncertaintyInterval ComputeUncertaintySpan(const PositionAttribute& attr,
                                           const geo::Route& route, Time t1,
                                           Time t2) {
  if (t1 > t2) std::swap(t1, t2);
  UncertaintyInterval span = ComputeUncertainty(attr, route, t1);
  auto sample = [&](Time t) {
    const UncertaintyInterval iv = ComputeUncertainty(attr, route, t);
    span.lo = std::min(span.lo, iv.lo);
    span.hi = std::max(span.hi, iv.hi);
  };
  sample(t2);
  for (Duration offset : BoundCriticalTimes(attr)) {
    const Time t = attr.start_time + offset;
    if (t > t1 && t < t2) sample(t);
  }
  return span;
}

std::string_view RegionRelationName(RegionRelation r) {
  switch (r) {
    case RegionRelation::kMustBeIn:
      return "must";
    case RegionRelation::kMayBeIn:
      return "may";
    case RegionRelation::kOutside:
      return "outside";
  }
  return "unknown";
}

namespace {

// The wrappers' refiner, one per thread: once its buffers have grown, a
// wrapper call allocates nothing either.
Refiner& ThreadRefiner() {
  thread_local Refiner refiner;
  return refiner;
}

}  // namespace

double ProbabilityInPolygon(const UncertaintyInterval& interval,
                            const geo::Route& route,
                            const geo::Polygon& polygon) {
  return ThreadRefiner().Probability(polygon, route.shape(), interval);
}

RegionRelation ClassifyAgainstPolygon(const UncertaintyInterval& interval,
                                      const geo::Route& route,
                                      const geo::Polygon& polygon) {
  return ThreadRefiner().Classify(polygon, route.shape(), interval);
}

}  // namespace modb::core
