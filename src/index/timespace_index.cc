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

util::Status TimeSpaceIndex::ApplyDeltaBatch(
    const std::vector<IndexDelta>& deltas) {
  // A poisoned page store would silently drop the mutation and desync the
  // per-object bookkeeping — refuse up front instead.
  if (util::Status s = rtree_.storage_status(); !s.ok()) return s;
  // Validate every row first so a failure leaves the index unchanged.
  for (const IndexDelta& delta : deltas) {
    if (delta.attr == nullptr) continue;
    if (const auto route = network_->FindRoute(delta.attr->route);
        !route.ok()) {
      return route.status();
    }
  }
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
  if (util::Status s = rtree_.storage_status(); !s.ok()) return s;
  // Validate every row first so a failure leaves the index unchanged.
  for (const IndexDelta& row : rows) {
    if (row.attr == nullptr) continue;
    if (const auto route = network_->FindRoute(row.attr->route);
        !route.ok()) {
      return route.status();
    }
  }
  // Give every listed object its new boxes, keep the boxes of unlisted
  // objects, then rebuild the tree in one packed pass.
  for (const IndexDelta& row : rows) {
    if (row.attr == nullptr) {
      boxes_by_object_.erase(row.id);
      continue;
    }
    const auto route = network_->FindRoute(row.attr->route);
    boxes_by_object_[row.id] =
        BuildOPlaneBoxes(*row.attr, **route, options_.oplane);
  }
  // Emit the packed-load input in ascending id order (the map iterates in
  // hash order, which varies between otherwise-identical stores): identical
  // logical contents must bulk-load structurally identical trees so
  // recovery/replay is deterministic.
  std::vector<const std::pair<const core::ObjectId, std::vector<geo::Box3>>*>
      ordered;
  ordered.reserve(boxes_by_object_.size());
  std::size_t total_boxes = 0;
  for (const auto& entry : boxes_by_object_) {
    ordered.push_back(&entry);
    total_boxes += entry.second.size();
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::vector<std::pair<geo::Box3, RTree3::Value>> entries;
  entries.reserve(total_boxes);
  for (const auto* entry : ordered) {
    for (const geo::Box3& box : entry->second) {
      entries.emplace_back(box, entry->first);
    }
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
