#ifndef MODB_INDEX_ROUTE_BAND_INDEX_H_
#define MODB_INDEX_ROUTE_BAND_INDEX_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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
/// [0, te − ts] (taken at 0, te − ts and `core::BoundCriticalTimes`; the
/// slow bound is behind for forward travel and ahead for backward travel,
/// as in `core::ComputeUncertainty`). The index stores it as one `RTree3`
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
/// routes appended to it while readers run are safe.
///
/// Concurrency: as `TimeSpaceIndex`. On a resident tree the probes are
/// lock-free; the writer publishes the route table and end reach before
/// each tree publication, and a probe loads them after pinning its tree
/// snapshot (`RTree3::Filter::Begin`).
class RouteBandIndex final : public ObjectIndex {
 public:
  struct Options {
    /// Horizon and slab width: only the horizon end `OPlaneEnd` is used.
    OPlaneOptions oplane;
    RTree3::Options rtree;
  };

  /// `network` must outlive the index.
  RouteBandIndex(const geo::RouteNetwork* network, Options options);

  util::Status Upsert(core::ObjectId id,
                      const core::PositionAttribute& attr) override;
  void Remove(core::ObjectId id) override;
  using ObjectIndex::BulkUpsert;
  /// Packed load in route-key order (`RTree3::Packing::kXOrder`) of every
  /// object, listed or kept. Rows are validated first (index unchanged on
  /// error) and emitted in ascending id order, so identical contents build
  /// identical trees.
  util::Status BulkUpsert(const std::vector<IndexDelta>& rows) override;
  /// Validates every row first (index unchanged on error), then removes
  /// and reinserts each object's one entry inside one tree write batch.
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
  util::Status FlushStorage() override { return rtree_.FlushStorage(); }
  bool lock_free_probes() const override { return rtree_.concurrent_reads(); }
  std::string_view name() const override { return "route"; }
  std::size_t num_objects() const override { return boxes_.size(); }
  std::size_t num_entries() const override { return rtree_.size(); }

  /// Largest distance any stored band has reached past an end of its route
  /// (never lowered, so a probe that read it stays sound).
  double end_reach() const;
  /// Failed entry removals (0 in a healthy index).
  std::size_t remove_misses() const { return remove_misses_; }
  const RTree3& rtree() const { return rtree_; }

 private:
  /// One registered route: immutable once published.
  struct RouteSlot {
    double offset = 0.0;  // key of route distance 0
    geo::Polyline shape;
  };
  using RouteTable = std::vector<std::shared_ptr<const RouteSlot>>;
  /// What a probe reads besides the tree, as one consistent pair.
  struct ProbeState {
    std::shared_ptr<const RouteTable> routes;
    double end_reach = 0.0;
  };
  class Probe;

  /// Route and storage checks of every row; OK leaves nothing changed.
  util::Status Validate(const std::vector<IndexDelta>& rows) const;
  /// Registers every route up to the largest id `rows` name, computes the
  /// rows' band boxes (empty for removals), raises the end reach to cover
  /// them and publishes routes and reach for probes — all before the rows
  /// touch the tree, so a probe of the new tree sees both.
  std::vector<geo::Box3> Prepare(const std::vector<IndexDelta>& rows);
  /// Removes `id`'s stored entry, if any, counting a miss.
  void RemoveEntry(core::ObjectId id);
  ProbeState LoadProbeState() const;
  std::vector<core::ObjectId> Search(const geo::Polygon& region,
                                     core::Time t1, core::Time t2) const;

  const geo::RouteNetwork* network_;
  Options options_;
  RTree3 rtree_;
  std::unordered_map<core::ObjectId, geo::Box3> boxes_;
  // Writer-side layout: the latest route table and end reach, and the
  // key where the next route's slot begins.
  std::shared_ptr<const RouteTable> routes_;
  double end_reach_ = 0.0;
  double next_base_ = 0.0;
  mutable std::mutex probe_mu_;  // guards `probe_state_`
  ProbeState probe_state_;
  std::size_t remove_misses_ = 0;
  util::Counter* remove_miss_counter_ = nullptr;  // non-owning, may be null
};

}  // namespace modb::index

#endif  // MODB_INDEX_ROUTE_BAND_INDEX_H_
