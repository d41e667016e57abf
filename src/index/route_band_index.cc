#include "index/route_band_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/bounds.h"

namespace modb::index {

namespace {

using KeyInterval = std::pair<double, double>;

/// Relative slack added around probe geometry, so that rounding in the
/// clip, the key arithmetic and the band arithmetic can only widen a probe.
constexpr double kSlack = 1e-9;

/// The band box of `attr` on a route whose distance 0 sits at key
/// `offset`: key [s0 − Kb, s0 + Kf] + offset, speed axis the point w,
/// time [ts, te]. Empty when the options cover no time at all.
geo::Box3 BandBox(const core::PositionAttribute& attr, double offset,
                  const OPlaneOptions& options) {
  if (options.horizon <= 0.0 || options.slab_width <= 0.0) return {};
  const core::Time ts = attr.start_time;
  const core::Time te = OPlaneEnd(ts, options);
  const core::BandReach reach = core::MaxBandReach(attr, te - ts);
  const double w = core::DirectionSign(attr.direction) * attr.speed;
  const double s0 = offset + attr.start_route_distance;
  return geo::Box3(s0 - reach.behind, w, ts, s0 + reach.ahead, w, te);
}

/// How far the band in `box` gets past either end of the route whose key
/// range is [start, end] at any time it covers: its near edge past the
/// far end, or its far edge before the start (≤ 0 when it stays on).
double EndReach(const geo::Box3& box, double start, double end) {
  const double drift = box.min[1] * (box.max[2] - box.min[2]);
  return std::max(box.min[0] + std::max(0.0, drift) - end,
                  start - (box.max[0] + std::min(0.0, drift)));
}

}  // namespace

/// One probe: the key intervals where the routes meet bbox(G), and the
/// band tests against them over the window [t1, t2].
class RouteBandIndex::Probe final : public RTree3::Filter {
 public:
  Probe(const RouteBandIndex& index, const geo::Polygon& region,
        core::Time t1, core::Time t2)
      : t1_(t1), t2_(t2) {
    geo::Box2 box = region.BoundingBox();
    const double scale = std::max({std::abs(box.min.x), std::abs(box.min.y),
                                   std::abs(box.max.x), std::abs(box.max.y)});
    box.Inflate(kSlack * (1.0 + scale));
    if (box.Empty()) return;
    for (const RouteSlot& slot : index.routes_) {
      const geo::Polyline& shape = slot.shape;
      const double length = shape.Length();
      const double slack = kSlack * (1.0 + std::abs(slot.offset) + length);
      for (const auto& [a, b] : shape.IntervalsInBox(box)) {
        // The uncertainty interval is the band clamped to the route, so a
        // band past an end counts as being at that end.
        const double lo = a <= 0.0 ? -index.end_reach_ : a;
        const double hi = b >= length ? length + index.end_reach_ : b;
        keys_.emplace_back(slot.offset + lo - slack, slot.offset + hi + slack);
      }
    }
    // Sorted and merged, so `Meets` is one binary search.
    std::sort(keys_.begin(), keys_.end());
    std::size_t kept = 0;
    for (const KeyInterval& key : keys_) {
      if (kept > 0 && keys_[kept - 1].second >= key.first) {
        keys_[kept - 1].second = std::max(keys_[kept - 1].second, key.second);
      } else {
        keys_[kept++] = key;
      }
    }
    keys_.resize(kept);
  }

  // An entry below matches only at some t in [max(t1, ts), t2], so its
  // band has moved by w·d with d in [0, t2 − min ts]: bilinear in (w, d),
  // bounded at the corners.
  bool Enter(const geo::Box3& box) const override {
    if (box.max[2] < t1_ || box.min[2] > t2_) return false;
    const double d = t2_ - box.min[2];
    return Meets(box.min[0] + std::min(0.0, box.min[1] * d),
                 box.max[0] + std::max(0.0, box.max[1] * d));
  }

  // Exact band test over the window clipped to the entry's [ts, te].
  bool Accept(const geo::Box3& box) const override {
    const double ts = box.min[2];
    const double u1 = std::max(t1_, ts);
    const double u2 = std::min(t2_, box.max[2]);
    if (u1 > u2) return false;
    const double w = box.min[1];
    const double a = w * (u1 - ts);
    const double b = w * (u2 - ts);
    return Meets(box.min[0] + std::min(a, b), box.max[0] + std::max(a, b));
  }

 private:
  bool Meets(double lo, double hi) const {
    const auto it = std::lower_bound(
        keys_.begin(), keys_.end(), lo,
        [](const KeyInterval& key, double v) { return key.second < v; });
    return it != keys_.end() && it->first <= hi;
  }

  core::Time t1_;
  core::Time t2_;
  std::vector<KeyInterval> keys_;  // sorted, disjoint
};

RouteBandIndex::RouteBandIndex(const geo::RouteNetwork* network,
                               Options options)
    : network_(network), options_(options), rtree_(options.rtree) {
  assert(network_ != nullptr);
}

void RouteBandIndex::SetMetrics(util::MetricsRegistry* registry,
                                const std::string& prefix) {
  remove_miss_counter_ =
      registry == nullptr ? nullptr : registry->GetCounter(prefix + "remove_miss");
  rtree_.SetMetrics(registry, prefix);
}

util::Status RouteBandIndex::Validate(
    const std::vector<IndexDelta>& rows) const {
  // A poisoned page store would silently drop the mutation — refuse up
  // front instead.
  if (util::Status s = rtree_.storage_status(); !s.ok()) return s;
  return CheckRoutes(*network_, rows);
}

std::vector<geo::Box3> RouteBandIndex::Prepare(
    const std::vector<IndexDelta>& rows) {
  std::size_t needed = routes_.size();
  for (const IndexDelta& row : rows) {
    if (row.attr != nullptr) {
      needed = std::max(needed, static_cast<std::size_t>(row.attr->route) + 1);
    }
  }
  for (std::size_t id = routes_.size(); id < needed; ++id) {
    const geo::Route& route = network_->route(static_cast<geo::RouteId>(id));
    routes_.push_back(RouteSlot{next_base_ + route.Length(), route.shape()});
    next_base_ += 3.0 * route.Length();
  }
  std::vector<geo::Box3> boxes(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].attr == nullptr) continue;
    const RouteSlot& slot = routes_[rows[i].attr->route];
    boxes[i] = BandBox(*rows[i].attr, slot.offset, options_.oplane);
    if (boxes[i].Empty()) continue;
    end_reach_ = std::max(
        end_reach_,
        EndReach(boxes[i], slot.offset, slot.offset + slot.shape.Length()));
  }
  return boxes;
}

void RouteBandIndex::RemoveEntry(core::ObjectId id,
                                 const core::PositionAttribute& before) {
  if (before.route < routes_.size()) {
    const geo::Box3 box =
        BandBox(before, routes_[before.route].offset, options_.oplane);
    if (box.Empty() || rtree_.Remove(box, id)) return;
  }
  // Internal-invariant breach: the store says the entry exists but the
  // tree disagrees.
  ++remove_misses_;
  if (remove_miss_counter_ != nullptr) remove_miss_counter_->Increment();
}

util::Status RouteBandIndex::ApplyDeltaBatch(
    const std::vector<IndexDelta>& deltas) {
  if (util::Status s = Validate(deltas); !s.ok()) return s;
  const std::vector<geo::Box3> boxes = Prepare(deltas);
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    if (deltas[i].before != nullptr) {
      RemoveEntry(deltas[i].id, *deltas[i].before);
    }
    if (!boxes[i].Empty()) rtree_.Insert(boxes[i], deltas[i].id);
  }
  return rtree_.storage_status();
}

util::Status RouteBandIndex::BulkUpsert(const std::vector<IndexDelta>& rows) {
  if (util::Status s = Validate(rows); !s.ok()) return s;
  const std::vector<geo::Box3> boxes = Prepare(rows);
  // Ascending id order in, so identical contents pack identical trees
  // whatever order the rows came in.
  std::vector<std::pair<geo::Box3, RTree3::Value>> entries;
  entries.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!boxes[i].Empty()) entries.emplace_back(boxes[i], rows[i].id);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  rtree_.BulkLoad(std::move(entries), RTree3::Packing::kXOrder);
  return rtree_.storage_status();
}

std::vector<core::ObjectId> RouteBandIndex::Candidates(
    const geo::Polygon& region, core::Time t) const {
  return Search(region, t, t);
}

std::vector<core::ObjectId> RouteBandIndex::CandidatesInWindow(
    const geo::Polygon& region, core::Time t1, core::Time t2) const {
  if (t1 > t2) std::swap(t1, t2);
  return Search(region, t1, t2);
}

std::vector<core::ObjectId> RouteBandIndex::Search(const geo::Polygon& region,
                                                   core::Time t1,
                                                   core::Time t2) const {
  const Probe probe(*this, region, t1, t2);
  std::vector<core::ObjectId> ids = rtree_.SearchIf(probe);
  std::sort(ids.begin(), ids.end());  // one entry per object: no duplicates
  return ids;
}

}  // namespace modb::index
