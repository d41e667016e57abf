#include "index/oplane.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/bounds.h"

namespace modb::index {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t NumSlabs(const OPlaneOptions& options) {
  return static_cast<std::size_t>(
      std::ceil(options.horizon / options.slab_width));
}

}  // namespace

core::Time OPlaneEnd(core::Time start, const OPlaneOptions& options) {
  if (options.horizon <= 0.0 || options.slab_width <= 0.0) return start;
  return std::min(
      start + options.slab_width * static_cast<double>(NumSlabs(options)),
      start + options.horizon);
}

std::vector<geo::Box3> BuildOPlaneBoxes(const core::PositionAttribute& attr,
                                        const geo::Route& route,
                                        const OPlaneOptions& options) {
  return BuildOPlaneBoxes(attr, route, options, -kInf, kInf);
}

std::vector<geo::Box3> BuildOPlaneBoxes(const core::PositionAttribute& attr,
                                        const geo::Route& route,
                                        const OPlaneOptions& options,
                                        core::Time window_lo,
                                        core::Time window_hi) {
  std::vector<geo::Box3> boxes;
  if (options.horizon <= 0.0 || options.slab_width <= 0.0) return boxes;

  const core::Time t0 = attr.start_time;
  // The last slab's upper edge; capping every slab at it is the same as
  // capping at t0 + horizon, since no earlier slab edge passes it.
  const core::Time t_end = OPlaneEnd(t0, options);

  const std::size_t num_slabs = NumSlabs(options);
  // A full build sizes its output once; a window keeps one or two slabs.
  if (window_lo == -kInf && window_hi == kInf) boxes.reserve(num_slabs);

  for (std::size_t s = 0; s < num_slabs; ++s) {
    const core::Time slab_lo = t0 + options.slab_width * static_cast<double>(s);
    const core::Time slab_hi = std::min(
        t0 + options.slab_width * static_cast<double>(s + 1), t_end);
    // Slab bounds keep the arithmetic above and are only compared with the
    // window, never derived from it, so a kept box is bit-identical to the
    // one a full build stores.
    if (slab_hi < window_lo) continue;
    if (slab_lo > window_hi) break;  // slab_lo never falls as s grows

    // Exact route stretch any uncertainty interval within the slab covers
    // (the span samples the slab edges plus the bound critical times).
    const core::UncertaintyInterval span =
        core::ComputeUncertaintySpan(attr, route, slab_lo, slab_hi);

    geo::Box2 bbox = route.shape().BoundingBoxBetween(span.lo, span.hi);
    if (options.padding > 0.0) bbox.Inflate(options.padding);
    boxes.emplace_back(bbox, slab_lo, slab_hi);
  }
  return boxes;
}

geo::Box3 QuerySlab(const geo::Box2& region_bbox, core::Time t0) {
  return geo::Box3(region_bbox, t0, t0);
}

}  // namespace modb::index
