#ifndef MODB_INDEX_OPLANE_H_
#define MODB_INDEX_OPLANE_H_

#include <vector>

#include "core/position_attribute.h"
#include "core/types.h"
#include "core/uncertainty.h"
#include "geo/box.h"
#include "geo/route.h"

namespace modb::index {

/// Parameters of the o-plane approximation.
struct OPlaneOptions {
  /// How far past the update time the o-plane extends (the paper's trip
  /// cut-off Z / time span T, §4.2).
  core::Duration horizon = 60.0;
  /// Width of one time slab. Each slab becomes one 3-D box; narrower slabs
  /// give fewer false candidates but a larger index (ablation E7).
  core::Duration slab_width = 4.0;
  /// Extra spatial padding added to every box (guards callers that query
  /// with degenerate-thickness boxes).
  double padding = 0.0;
};

/// End of the time span an o-plane built at `start` covers: the upper edge
/// of its last slab, start + horizon (the slab arithmetic can only end it
/// earlier by rounding). Every index kind with a horizon cuts there, so
/// the route-band index and the slab boxes share this one helper.
/// `start` itself when the options build no slab at all.
core::Time OPlaneEnd(core::Time start, const OPlaneOptions& options);

/// Builds the 3-D box approximation of the o-plane of an object whose
/// position attribute is `attr` on `route` (paper §4.1.1).
///
/// The o-plane is the set of uncertainty intervals { [l(t), u(t)] : t },
/// where l(t) = vt - BS(t) and u(t) = vt + BF(t). Time is discretised into
/// slabs of `slab_width`; for each slab the route stretch covered by any
/// uncertainty interval within the slab is bounded exactly (the bound
/// functions are monotone between their critical times, so sampling the
/// slab edges plus the critical times suffices), and the stretch's 2-D
/// bounding box is lifted into the slab.
std::vector<geo::Box3> BuildOPlaneBoxes(const core::PositionAttribute& attr,
                                        const geo::Route& route,
                                        const OPlaneOptions& options);

/// The boxes of only those slabs whose closed time range [slab_lo, slab_hi]
/// meets [window_lo, window_hi], in slab order: each one bit-identical to
/// the same slab's box in the full build above. A time slice t0 meets one
/// slab, or two when t0 is a slab edge (§4.1–4.2), so a candidacy test at
/// t0 builds one or two boxes instead of the whole plane.
std::vector<geo::Box3> BuildOPlaneBoxes(const core::PositionAttribute& attr,
                                        const geo::Route& route,
                                        const OPlaneOptions& options,
                                        core::Time window_lo,
                                        core::Time window_hi);

/// The 3-D representation R_G(t0) of the query "in polygon G at time t0"
/// (paper §4.1.2): G's bounding box at the time slice t0.
geo::Box3 QuerySlab(const geo::Box2& region_bbox, core::Time t0);

}  // namespace modb::index

#endif  // MODB_INDEX_OPLANE_H_
