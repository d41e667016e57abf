#ifndef MODB_CORE_UNCERTAINTY_H_
#define MODB_CORE_UNCERTAINTY_H_

#include <string_view>

#include "core/position_attribute.h"
#include "core/types.h"
#include "geo/polygon.h"
#include "geo/route.h"

namespace modb::core {

/// The uncertainty interval of a moving object at a point in time
/// (paper §4.1.1): the stretch of the route, in route-distance coordinates,
/// within which the object is guaranteed to be. `lo <= hi`.
struct UncertaintyInterval {
  double lo = 0.0;
  double hi = 0.0;

  double Width() const { return hi - lo; }
  bool ContainsDistance(double s) const { return s >= lo && s <= hi; }
};

/// Computes the uncertainty interval of an object with position attribute
/// `attr` on `route` at time `t` (>= attr.start_time). The interval is the
/// database position plus/minus the fast/slow deviation bounds mapped along
/// the direction of travel, clamped to the route ends:
///   lower-o  l(t) = v*t - BS(t),   upper-o  u(t) = v*t + BF(t).
UncertaintyInterval ComputeUncertainty(const PositionAttribute& attr,
                                       const geo::Route& route, Time t);

/// Smallest route-distance interval covering the uncertainty interval of
/// `attr` at *every* time in [t1, t2]. The interval endpoints l(t), u(t)
/// are monotone between the bound functions' critical times, so sampling
/// the window edges plus the critical times inside it is exact. Used by
/// the o-plane builder (one call per time slab) and by time-window range
/// queries.
UncertaintyInterval ComputeUncertaintySpan(const PositionAttribute& attr,
                                           const geo::Route& route, Time t1,
                                           Time t2);

/// Relation of an object's possible positions to a query polygon.
enum class RegionRelation {
  kMustBeIn,  // the whole uncertainty interval lies inside the polygon
  kMayBeIn,   // the interval intersects the polygon boundary/interior
  kOutside,   // the interval is disjoint from the polygon
};

std::string_view RegionRelationName(RegionRelation r);

/// Classifies the uncertainty interval `interval` on `route` against
/// `polygon` (paper §4.1.1 definitions of "may be in" / "must be in" G).
/// A one-call wrapper of `Refiner::Classify`; a query refining many
/// candidates keeps one `Refiner` instead.
RegionRelation ClassifyAgainstPolygon(const UncertaintyInterval& interval,
                                      const geo::Route& route,
                                      const geo::Polygon& polygon);

/// Probability that the object is inside `polygon`, under the natural
/// refinement of the MAY answer: the DBMS knows only that the object is
/// somewhere in its uncertainty interval, so position is taken uniform
/// over the interval and the probability is the in-polygon fraction of its
/// arc length (exact clipping). Degenerate (zero-width) intervals yield
/// 0 or 1. MUST objects get 1.0, OUTSIDE objects 0.0, by construction.
/// A one-call wrapper of `Refiner::Probability`.
double ProbabilityInPolygon(const UncertaintyInterval& interval,
                            const geo::Route& route,
                            const geo::Polygon& polygon);

}  // namespace modb::core

#endif  // MODB_CORE_UNCERTAINTY_H_
