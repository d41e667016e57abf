#include "index/linear_scan_index.h"

#include <algorithm>

#include "core/uncertainty.h"

namespace modb::index {

util::Status LinearScanIndex::ApplyDeltaBatch(
    const std::vector<IndexDelta>& deltas) {
  if (util::Status s = CheckRoutes(*network_, deltas); !s.ok()) return s;
  for (const IndexDelta& delta : deltas) {
    if (delta.attr == nullptr) {
      attrs_.erase(delta.id);
    } else {
      attrs_[delta.id] = *delta.attr;
    }
  }
  return util::Status::Ok();
}

util::Status LinearScanIndex::BulkUpsert(const std::vector<IndexDelta>& rows) {
  if (util::Status s = CheckRoutes(*network_, rows); !s.ok()) return s;
  attrs_.clear();
  for (const IndexDelta& row : rows) {
    if (row.attr != nullptr) attrs_[row.id] = *row.attr;
  }
  return util::Status::Ok();
}

std::vector<core::ObjectId> LinearScanIndex::Candidates(
    const geo::Polygon& region, core::Time t) const {
  return CandidatesInWindow(region, t, t);
}

std::vector<core::ObjectId> LinearScanIndex::CandidatesInWindow(
    const geo::Polygon& region, core::Time t1, core::Time t2) const {
  const geo::Box2 region_box = region.BoundingBox();
  std::vector<core::ObjectId> out;
  for (const auto& [id, attr] : attrs_) {
    const auto route = network_->FindRoute(attr.route);
    if (!route.ok()) continue;
    const core::UncertaintyInterval span =
        core::ComputeUncertaintySpan(attr, **route, t1, t2);
    const geo::Box2 span_box =
        (*route)->shape().BoundingBoxBetween(span.lo, span.hi);
    if (region_box.Intersects(span_box)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace modb::index
