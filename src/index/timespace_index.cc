#include "index/timespace_index.h"

#include <algorithm>
#include <cassert>

namespace modb::index {

TimeSpaceIndex::TimeSpaceIndex(const geo::RouteNetwork* network)
    : TimeSpaceIndex(network, Options{}) {}

TimeSpaceIndex::TimeSpaceIndex(const geo::RouteNetwork* network,
                               Options options)
    : network_(network), options_(options), rtree_(options.rtree) {
  assert(network_ != nullptr);
}

void TimeSpaceIndex::SetMetrics(util::MetricsRegistry* registry,
                                const std::string& prefix) {
  remove_miss_counter_ =
      registry == nullptr ? nullptr : registry->GetCounter(prefix + "remove_miss");
  rtree_.SetMetrics(registry, prefix);
}

util::Status TimeSpaceIndex::Validate(
    const std::vector<IndexDelta>& rows) const {
  // A poisoned page store would silently drop the mutation and desync the
  // per-object bookkeeping — refuse up front instead.
  if (util::Status s = rtree_.storage_status(); !s.ok()) return s;
  return CheckRoutes(*network_, rows);
}

util::Status TimeSpaceIndex::ApplyDeltaBatch(
    const std::vector<IndexDelta>& deltas) {
  if (util::Status s = Validate(deltas); !s.ok()) return s;
  for (const IndexDelta& delta : deltas) {
    // Drop the old o-plane (paper §4.2: remove the object id from the
    // index rectangles intersecting p1) ...
    const auto it = boxes_by_object_.find(delta.id);
    if (it != boxes_by_object_.end()) RemoveBoxes(delta.id, it->second);
    if (delta.attr == nullptr) {
      if (it != boxes_by_object_.end()) boxes_by_object_.erase(it);
      continue;
    }
    // ... and index the new one (insert into the rectangles intersecting
    // p2).
    const auto route = network_->FindRoute(delta.attr->route);
    std::vector<geo::Box3> boxes =
        BuildOPlaneBoxes(*delta.attr, **route, options_.oplane);
    for (const geo::Box3& box : boxes) rtree_.Insert(box, delta.id);
    boxes_by_object_[delta.id] = std::move(boxes);
  }
  return rtree_.storage_status();
}

util::Status TimeSpaceIndex::BulkUpsert(const std::vector<IndexDelta>& rows) {
  if (util::Status s = Validate(rows); !s.ok()) return s;
  // Emit the packed-load input in ascending id order, whatever order the
  // rows came in: identical logical contents must bulk-load structurally
  // identical trees so recovery/replay is deterministic.
  std::vector<const IndexDelta*> ordered;
  ordered.reserve(rows.size());
  for (const IndexDelta& row : rows) {
    if (row.attr != nullptr) ordered.push_back(&row);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const IndexDelta* a, const IndexDelta* b) {
              return a->id < b->id;
            });
  boxes_by_object_.clear();
  std::vector<std::pair<geo::Box3, RTree3::Value>> entries;
  for (const IndexDelta* row : ordered) {
    const auto route = network_->FindRoute(row->attr->route);
    std::vector<geo::Box3>& boxes = boxes_by_object_[row->id];
    boxes = BuildOPlaneBoxes(*row->attr, **route, options_.oplane);
    for (const geo::Box3& box : boxes) entries.emplace_back(box, row->id);
  }
  rtree_.BulkLoad(std::move(entries));
  return rtree_.storage_status();
}

void TimeSpaceIndex::RemoveBoxes(core::ObjectId id,
                                 const std::vector<geo::Box3>& boxes) {
  const std::size_t misses = boxes.size() - rtree_.RemoveBatch(boxes, id);
  if (misses == 0) return;
  // Internal-invariant breach: the bookkeeping says these boxes exist but
  // the tree disagrees. Count them (a stale ghost box would mean duplicate
  // candidates / leaked entries) and keep going — a delta's new plane is
  // still installed correctly.
  remove_misses_ += misses;
  if (remove_miss_counter_ != nullptr) remove_miss_counter_->Increment(misses);
}

std::vector<core::ObjectId> TimeSpaceIndex::Candidates(
    const geo::Polygon& region, core::Time t) const {
  return CandidatesInWindow(region, t, t);
}

std::vector<core::ObjectId> TimeSpaceIndex::CandidatesInWindow(
    const geo::Polygon& region, core::Time t1, core::Time t2) const {
  std::vector<core::ObjectId> ids =
      rtree_.SearchValues(geo::Box3(region.BoundingBox(), t1, t2));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace modb::index
