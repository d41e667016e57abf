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
#include "geo/route_network.h"
#include "util/metrics.h"
#include "util/status.h"

namespace modb::index {

/// One element of a batched index-maintenance pass or bulk load: install
/// `attr` as the motion model of `id`, or remove `id` when `attr` is null.
/// `before` is the model the store held for `id` when the call began (null
/// when it held none), so `{id, &attr}` is a new object. The database keeps
/// the only copy of each model; an index that needs the old one to find
/// the entry to drop (the route-band index) rebuilds that entry from
/// `before`.
/// The pointed-to attributes must stay alive for the duration of the
/// `ApplyDeltaBatch` / `BulkUpsert` call.
struct IndexDelta {
  core::ObjectId id = core::kInvalidObjectId;
  const core::PositionAttribute* attr = nullptr;    // null = remove
  const core::PositionAttribute* before = nullptr;  // null = not indexed
};

/// NotFound for the first row whose attribute names a route `network` does
/// not hold, else OK: the route check every index makes of a whole batch
/// before it changes anything.
inline util::Status CheckRoutes(const geo::RouteNetwork& network,
                                const std::vector<IndexDelta>& rows) {
  for (const IndexDelta& row : rows) {
    if (row.attr == nullptr) continue;
    if (const auto route = network.FindRoute(row.attr->route); !route.ok()) {
      return route.status();
    }
  }
  return util::Status::Ok();
}

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
  /// row with a null attribute removes its object. Rows apply in order,
  /// each object at most once per batch (the database dedups to the final
  /// attribute), and each row's `before` must be the model the index last
  /// took for that object: an entry `before` does not find counts as a
  /// remove miss. Every row is validated first: a row naming an unknown
  /// route (NotFound) or a poisoned page store fails the whole batch with
  /// the index unchanged — a handled error, never undefined behaviour, in
  /// any build mode. A storage fault during the batch poisons the index
  /// and is returned; every later call then fails up front.
  virtual util::Status ApplyDeltaBatch(
      const std::vector<IndexDelta>& deltas) = 0;

  /// `BulkUpsert` of one plain row per pair.
  util::Status BulkUpsert(
      const std::vector<std::pair<core::ObjectId, core::PositionAttribute>>&
          objects) {
    std::vector<IndexDelta> rows;
    rows.reserve(objects.size());
    for (const auto& [id, attr] : objects) rows.push_back({id, &attr});
    return BulkUpsert(rows);
  }

  /// Bulk load: afterwards the index holds exactly the rows' objects, each
  /// with its row's attribute, whatever it held before (rows name distinct
  /// objects; a row with a null attribute adds nothing; `before` is
  /// ignored). Rows are validated as `ApplyDeltaBatch` validates them, and
  /// a failed validation leaves the index unchanged.
  virtual util::Status BulkUpsert(const std::vector<IndexDelta>& rows) = 0;

  /// OK, or the sticky fault of the index's page store: once it is set,
  /// every mutation fails. Default OK (an index with no page store).
  virtual util::Status storage_status() const { return util::Status::Ok(); }

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
