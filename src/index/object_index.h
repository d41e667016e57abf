#ifndef MODB_INDEX_OBJECT_INDEX_H_
#define MODB_INDEX_OBJECT_INDEX_H_

#include <cstddef>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "core/position_attribute.h"
#include "core/types.h"
#include "geo/polygon.h"
#include "util/metrics.h"
#include "util/status.h"

namespace modb::index {

/// One element of a batched index-maintenance pass or bulk load: install
/// `attr` as the motion model of `id`, or remove `id` when `attr` is null.
/// The pointed-to attribute must stay alive for the duration of the
/// `ApplyDeltaBatch` / `BulkUpsert` call (the batch write path points into
/// its own merged-attribute buffer rather than copying).
struct IndexDelta {
  core::ObjectId id = core::kInvalidObjectId;
  const core::PositionAttribute* attr = nullptr;  // null = remove
};

/// Access method the database uses to answer range queries over moving
/// objects. Implementations return a *superset* of the objects whose
/// uncertainty interval can intersect the query region at time `t`
/// (candidates); the database refines candidates with the exact
/// MUST / MAY classification.
///
/// Thread-compatibility contract: the const methods (`Candidates`,
/// `CandidatesInWindow`, the size accessors) must be safe to call
/// concurrently from multiple threads as long as no thread is in a
/// mutating method — i.e. implementations must not mutate hidden state
/// (no `mutable` caches) from const paths. The sharded database relies on
/// this to run fan-out queries under shared (reader) locks.
class ObjectIndex {
 public:
  virtual ~ObjectIndex() = default;

  /// Applies a batch of deltas — the index stage of every store write.
  /// A row with an attribute installs it as its object's motion model (a
  /// position update, paper §4.2: drop the old o-plane, index the new); a
  /// row with a null attribute removes its object (end of trip; an id the
  /// index does not hold is a no-op). Rows apply in order, each object at
  /// most once per batch (the database dedups to the final attribute).
  /// Every row is validated first: a row naming an unknown route
  /// (NotFound) or a poisoned page store fails the whole batch with the
  /// index unchanged — a handled error, never undefined behaviour, in any
  /// build mode. A storage fault during the batch poisons the index and is
  /// returned; every later call then fails up front. The database commits
  /// an insert or update to its record map only after this returned OK, so
  /// it never undoes a write.
  virtual util::Status ApplyDeltaBatch(
      const std::vector<IndexDelta>& deltas) = 0;

  /// Bulk variant of `ApplyDeltaBatch` for the initial fleet load: the row
  /// form below with one plain row per pair.
  util::Status BulkUpsert(
      const std::vector<std::pair<core::ObjectId, core::PositionAttribute>>&
          objects) {
    std::vector<IndexDelta> rows;
    rows.reserve(objects.size());
    for (const auto& [id, attr] : objects) rows.push_back({id, &attr});
    return BulkUpsert(rows);
  }

  /// Bulk load of `IndexDelta` rows, each object at most once, validated
  /// as `ApplyDeltaBatch` validates. The default applies them as one delta
  /// batch; the R*-tree indexes override it with a packed build of every
  /// object, listed or kept.
  virtual util::Status BulkUpsert(const std::vector<IndexDelta>& rows) {
    return ApplyDeltaBatch(rows);
  }

  /// Ids of objects that may be inside `region` at time `t` (superset).
  virtual std::vector<core::ObjectId> Candidates(const geo::Polygon& region,
                                                 core::Time t) const = 0;

  /// Ids of objects that may be inside `region` at *some* time in
  /// [t1, t2] (superset). Time-window variant used by interval queries.
  virtual std::vector<core::ObjectId> CandidatesInWindow(
      const geo::Polygon& region, core::Time t1, core::Time t2) const = 0;

  /// End of the time span over which this index returns an object whose
  /// motion model is `attr`: no probe at a later time returns it. Query
  /// refinement clips a time window to [attr.start_time, CoverageEnd] so
  /// every index kind with the same horizon answers alike. Default: no
  /// horizon (+infinity), as for the linear scan.
  virtual core::Time CoverageEnd(const core::PositionAttribute& attr) const {
    (void)attr;
    return std::numeric_limits<core::Time>::infinity();
  }

  /// Registers this index's instruments in `registry` under `prefix`
  /// (nullptr detaches). The registry must outlive the index. Default
  /// no-op; implementations document what they register (e.g. the
  /// time-space index's `<prefix>remove_miss`). Gauge updates use signed
  /// deltas, so several indexes sharing one registry and prefix (the
  /// sharded layer) aggregate as sums.
  virtual void SetMetrics(util::MetricsRegistry* registry,
                          const std::string& prefix) {
    (void)registry;
    (void)prefix;
  }

  /// Implementation name for reports ("rtree", "scan", "route").
  virtual std::string_view name() const = 0;

  /// Number of objects currently indexed.
  virtual std::size_t num_objects() const = 0;

  /// Storage entries backing the index (3-D boxes for the R*-tree, one per
  /// object for the scan); reported by the index-size benchmarks.
  virtual std::size_t num_entries() const = 0;
};

}  // namespace modb::index

#endif  // MODB_INDEX_OBJECT_INDEX_H_
