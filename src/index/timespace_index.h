#ifndef MODB_INDEX_TIMESPACE_INDEX_H_
#define MODB_INDEX_TIMESPACE_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "geo/route_network.h"
#include "index/object_index.h"
#include "index/oplane.h"
#include "index/rtree3.h"

namespace modb::index {

/// The paper's time-space indexing method (§4.2): each object's o-plane is
/// approximated by per-time-slab 3-D boxes stored in an R*-tree. A position
/// update removes the object's old boxes and inserts the boxes of the new
/// o-plane; a range query at time t0 probes the tree with R_G(t0).
///
/// Queries are exact (no false negatives) for t0 within `options.horizon`
/// of each object's last update; later time points fall outside the indexed
/// planes, mirroring the paper's bounded time span T.
///
/// Maintenance-path error handling: a delta naming an unknown route is a
/// NotFound error that leaves the index unchanged (checked in every build
/// mode — no assert-guarded UB). A failed box removal during a delta (an
/// internal-invariant breach: the bookkeeping says the box is there but
/// the tree disagrees) is surfaced through the `<prefix>remove_miss`
/// counter (see `SetMetrics`) and the `remove_misses()` accessor instead
/// of being silently ignored; the delta still installs the new plane so
/// the index keeps no stale model for the object.
///
/// Satisfies the `ObjectIndex` thread-compatibility contract: the const
/// query paths only walk the R*-tree and never touch `boxes_by_object_`
/// mutably, so concurrent readers are safe under a shared lock.
class TimeSpaceIndex final : public ObjectIndex {
 public:
  struct Options {
    OPlaneOptions oplane;
    RTree3::Options rtree;
  };

  /// `network` must outlive the index.
  explicit TimeSpaceIndex(const geo::RouteNetwork* network);
  TimeSpaceIndex(const geo::RouteNetwork* network, Options options);

  using ObjectIndex::BulkUpsert;
  /// STR bulk load of exactly the rows' objects, replacing the tree. All
  /// rows are validated first; on error the index is unchanged. The
  /// packed-load input is emitted in ascending object-id order, so two
  /// identical stores bulk-load byte-identical trees regardless of row
  /// order (deterministic recovery/replay).
  util::Status BulkUpsert(const std::vector<IndexDelta>& rows) override;
  /// Validates every delta's route first (index unchanged on failure),
  /// then drops each object's old boxes in one descent and inserts the new
  /// ones. The old boxes come from the index's own per-object lists, so
  /// `before` is ignored.
  util::Status ApplyDeltaBatch(const std::vector<IndexDelta>& deltas) override;
  std::vector<core::ObjectId> Candidates(const geo::Polygon& region,
                                         core::Time t) const override;
  std::vector<core::ObjectId> CandidatesInWindow(const geo::Polygon& region,
                                                 core::Time t1,
                                                 core::Time t2) const override;
  /// The o-plane's last slab edge (`OPlaneEnd`).
  core::Time CoverageEnd(const core::PositionAttribute& attr) const override {
    return OPlaneEnd(attr.start_time, options_.oplane);
  }
  /// Registers `<prefix>remove_miss` (counter) plus the tree's page I/O
  /// instruments (`<prefix>splits`,
  /// `<prefix>pages.*` — see `RTree3::SetMetrics`) in `registry`.
  void SetMetrics(util::MetricsRegistry* registry,
                  const std::string& prefix) override;
  util::Status storage_status() const override {
    return rtree_.storage_status();
  }
  std::string_view name() const override { return "rtree"; }
  std::size_t num_objects() const override { return boxes_by_object_.size(); }
  std::size_t num_entries() const override { return rtree_.size(); }

  const RTree3& rtree() const { return rtree_; }
  const Options& options() const { return options_; }

  /// Failed box removals observed on the delta path (0 in a healthy
  /// index; see the class comment).
  std::size_t remove_misses() const { return remove_misses_; }

  /// Mutable tree access for tests that need to provoke the
  /// internal-invariant paths (remove misses). Not part of the index API.
  RTree3& rtree_for_testing() { return rtree_; }

 private:
  /// Storage and route checks of every row; OK leaves nothing changed.
  util::Status Validate(const std::vector<IndexDelta>& rows) const;
  /// Removes the object's `boxes` with one `RTree3::RemoveBatch` descent,
  /// counting any box the tree lacks as a remove miss.
  void RemoveBoxes(core::ObjectId id, const std::vector<geo::Box3>& boxes);

  const geo::RouteNetwork* network_;
  Options options_;
  RTree3 rtree_;
  std::unordered_map<core::ObjectId, std::vector<geo::Box3>> boxes_by_object_;
  std::size_t remove_misses_ = 0;
  util::Counter* remove_miss_counter_ = nullptr;  // non-owning, may be null
};

}  // namespace modb::index

#endif  // MODB_INDEX_TIMESPACE_INDEX_H_
