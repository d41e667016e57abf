#ifndef MODB_CORE_REFINER_H_
#define MODB_CORE_REFINER_H_

#include <vector>

#include "core/position_attribute.h"
#include "core/types.h"
#include "core/uncertainty.h"
#include "geo/point.h"
#include "geo/polygon.h"
#include "geo/polyline.h"
#include "geo/route.h"

namespace modb::core {

/// Smallest and largest Euclidean distance from a query point to the
/// stretch of route an object may occupy.
struct DistanceBracket {
  double min = 0.0;
  double max = 0.0;
};

/// The refine step of filter-and-refine (paper §4.1.1, Theorems 5–6): one
/// kernel for range, interval and nearest queries and for subscription
/// matching. A query builds one refiner (per shard) and calls it once per
/// candidate. Each call builds the candidate's sub-polyline once, into a
/// buffer the refiner reuses, evaluates `Polygon::Contains` at most once
/// per vertex, and derives every answer from that buffer; once the
/// buffers have grown, no call allocates.
///
/// Exactness: the answers are bit-identical to running the geo predicates
/// one at a time on freshly built sub-polylines. The same predicates run
/// on the same points with the same arithmetic; only repeated evaluations
/// are dropped (DESIGN.md §15).
///
/// Not thread-safe: one refiner per thread.
class Refiner {
 public:
  /// Relation of the stretch [interval.lo, interval.hi] of `shape` to
  /// `region`: kMustBeIn when every piece of it lies in the region,
  /// kMayBeIn when it meets the region, kOutside otherwise. For a kMayBeIn
  /// answer, `may_probability` (when non-null) receives `Probability`.
  RegionRelation Classify(const geo::Polygon& region,
                          const geo::Polyline& shape,
                          const UncertaintyInterval& interval,
                          double* may_probability = nullptr);

  /// True when the whole stretch lies in `region` (the MUST test alone).
  bool Inside(const geo::Polygon& region, const geo::Polyline& shape,
              const UncertaintyInterval& interval);

  /// Share of the stretch's arc length inside `region`, clamped to [0, 1]:
  /// the object's position is taken uniform over its uncertainty interval.
  /// A stretch no wider than 1e-12 gives 1 or 0 by containment of its
  /// `lo` end.
  double Probability(const geo::Polygon& region, const geo::Polyline& shape,
                     const UncertaintyInterval& interval);

  /// Relation of `attr` on `route` to `region` over the window [lo, hi]
  /// (the DURING form; the caller clips the window to what the model
  /// covers). kMayBeIn is exact: the interval endpoints move
  /// continuously, so the swept span meets the region iff the interval
  /// does at some instant. kMustBeIn (MUST at some instant) is sampled at
  /// lo, lo + step, lo + 2 step, ... clamped to hi, so hi is always
  /// sampled. Once `t + step` no longer exceeds `t` (t past about 1e16
  /// for step 1), the next sample is hi and the last.
  RegionRelation ClassifyDuring(const geo::Polygon& region,
                                const PositionAttribute& attr,
                                const geo::Route& route, Time lo, Time hi,
                                Duration step);

  /// Distances from `p` to the stretch: the closest point of any of its
  /// segments, and its farthest vertex.
  DistanceBracket Distances(const geo::Point2& p, const geo::Polyline& shape,
                            const UncertaintyInterval& interval);

 private:
  // True when some piece of the stretch meets `region`.
  bool Meets(const geo::Polygon& region, const geo::Polyline& shape,
             const UncertaintyInterval& interval);
  // For a loaded stretch of two or more points: with every vertex inside,
  // whether every segment stays inside; with none inside, whether some
  // segment still meets the region.
  bool SegmentsInside(const geo::Polygon& region) const;
  bool SegmentsMeet(const geo::Polygon& region) const;
  // `Probability` of the loaded stretch.
  double LoadedProbability(const geo::Polygon& region,
                           const geo::Polyline& shape,
                           const UncertaintyInterval& interval);

  std::vector<geo::Point2> sub_;  // the loaded stretch's vertices
  std::vector<double> params_;    // IntersectionLength's crossing scratch
};

}  // namespace modb::core

#endif  // MODB_CORE_REFINER_H_
