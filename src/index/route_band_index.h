#ifndef MODB_INDEX_ROUTE_BAND_INDEX_H_
#define MODB_INDEX_ROUTE_BAND_INDEX_H_

#include <string>
#include <vector>

#include "geo/polyline.h"
#include "geo/route_network.h"
#include "index/object_index.h"
#include "index/oplane.h"
#include "index/rtree3.h"

namespace modb::index {

/// One R*-tree entry per object, in route coordinates (paper §2, §4.1.1).
///
/// Over its horizon [ts, te] an object's o-plane lies in one band of route
/// distances: s0 + w·(t − ts) + [−Kb, +Kf], with w the signed speed and Kb,
/// Kf the largest bounds behind and ahead of the database position over
/// [0, te − ts] (`core::MaxBandReach`, which the subscription engine's
/// route-space join shares). The index stores it as one `RTree3`
/// box over (route key, w, [ts, te]): the key interval is the route's key
/// offset plus [s0 − Kb, s0 + Kf], the w axis is the point w, and te is the
/// slab boxes' horizon end (`OPlaneEnd`), so this index and
/// `TimeSpaceIndex` cut at the same instant.
///
/// Route keys. Route r owns the key slot [base_r, base_r + 3·L_r] (L_r its
/// length, slots laid out in route-id order), and s maps to
/// base_r + L_r + s: a band that leaves its route by up to L_r stays in its
/// own slot. The layout depends only on the route lengths, so two indexes
/// over one network agree on it however their routes were registered.
///
/// Probes. A query region G is clipped against the routes into the
/// s-intervals where a route lies in bbox(G). The uncertainty interval is
/// the band clamped to [0, L], so on an interval that touches a route end
/// the probe is widened past that end by the largest reach past an end any
/// band ever stored has (`end_reach()`). Inside the tree, an internal box
/// bounds s + w·(t − ts) at its corners (t − ts ranges over [0, t2 − min
/// ts]); a leaf box is tested exactly: its band over [max(t1, ts),
/// min(t2, te)] must meet a probe interval. Candidates are a superset of
/// what exact refinement keeps inside [ts, te], as for the slab boxes.
///
/// Routes are registered, in id order, when a row first names them; the
/// route table copies their geometry, so probes never read the network and
/// routes appended to it while probes run are safe.
///
/// The index keeps no per-object state: the database holds each object's
/// model, and a delta's `before` names the model whose entry to drop. The
/// box rebuilt from it is bit-identical to the one inserted, because
/// `BandBox` reads only the attribute, its route's key offset (fixed once
/// the route is registered) and the o-plane options. A `before` the tree
/// does not hold, or on a route never registered, is a remove miss.
///
/// Concurrency: as `TimeSpaceIndex` — any number of probes, or one writer
/// alone.
class RouteBandIndex final : public ObjectIndex {
 public:
  struct Options {
    /// Horizon and slab width: only the horizon end `OPlaneEnd` is used.
    OPlaneOptions oplane;
    RTree3::Options rtree;
  };

  /// `network` must outlive the index.
  RouteBandIndex(const geo::RouteNetwork* network, Options options);

  using ObjectIndex::BulkUpsert;
  /// Packed load of the rows in route-key order
  /// (`RTree3::Packing::kXOrder`), replacing the tree. Rows are validated
  /// first (index unchanged on error) and emitted in ascending id order,
  /// so identical contents build identical trees.
  util::Status BulkUpsert(const std::vector<IndexDelta>& rows) override;
  /// Validates every row first (index unchanged on error), then removes
  /// each row's `before` entry and inserts its new one.
  util::Status ApplyDeltaBatch(const std::vector<IndexDelta>& deltas) override;
  std::vector<core::ObjectId> Candidates(const geo::Polygon& region,
                                         core::Time t) const override;
  std::vector<core::ObjectId> CandidatesInWindow(const geo::Polygon& region,
                                                 core::Time t1,
                                                 core::Time t2) const override;
  core::Time CoverageEnd(const core::PositionAttribute& attr) const override {
    return OPlaneEnd(attr.start_time, options_.oplane);
  }
  /// Registers `<prefix>remove_miss` plus the tree's instruments
  /// (`RTree3::SetMetrics`).
  void SetMetrics(util::MetricsRegistry* registry,
                  const std::string& prefix) override;
  util::Status storage_status() const override {
    return rtree_.storage_status();
  }
  std::string_view name() const override { return "route"; }
  /// One entry per object: the tree's size.
  std::size_t num_objects() const override { return rtree_.size(); }
  std::size_t num_entries() const override { return rtree_.size(); }

  /// Largest distance any stored band has reached past an end of its route
  /// (never lowered).
  double end_reach() const { return end_reach_; }
  /// Failed entry removals (0 in a healthy index).
  std::size_t remove_misses() const { return remove_misses_; }
  const RTree3& rtree() const { return rtree_; }

 private:
  /// One registered route.
  struct RouteSlot {
    double offset = 0.0;  // key of route distance 0
    geo::Polyline shape;
  };
  class Probe;

  /// Route and storage checks of every row; OK leaves nothing changed.
  util::Status Validate(const std::vector<IndexDelta>& rows) const;
  /// Registers every route up to the largest id `rows` name, computes the
  /// rows' band boxes (empty for removals) and raises the end reach to
  /// cover them.
  std::vector<geo::Box3> Prepare(const std::vector<IndexDelta>& rows);
  /// Removes the entry `id` got for the model `before`, counting a miss.
  void RemoveEntry(core::ObjectId id, const core::PositionAttribute& before);
  std::vector<core::ObjectId> Search(const geo::Polygon& region,
                                     core::Time t1, core::Time t2) const;

  const geo::RouteNetwork* network_;
  Options options_;
  RTree3 rtree_;
  // Key layout: the registered routes (index = route id), the end reach,
  // and the key where the next route's slot begins.
  std::vector<RouteSlot> routes_;
  double end_reach_ = 0.0;
  double next_base_ = 0.0;
  std::size_t remove_misses_ = 0;
  util::Counter* remove_miss_counter_ = nullptr;  // non-owning, may be null
};

}  // namespace modb::index

#endif  // MODB_INDEX_ROUTE_BAND_INDEX_H_
