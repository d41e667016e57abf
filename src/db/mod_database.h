#ifndef MODB_DB_MOD_DATABASE_H_
#define MODB_DB_MOD_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/position_attribute.h"
#include "core/types.h"
#include "core/update_policy.h"
#include "db/moving_object.h"
#include "db/query.h"
#include "geo/polygon.h"
#include "geo/route_network.h"
#include "index/object_index.h"
#include "storage/storage_manager.h"
#include "util/metrics.h"
#include "util/status.h"

namespace modb::db {

class WalWriter;
struct AttributeDelta;
class SubscriptionEngine;

/// Per-record outcome of `ApplyUpdateBatch` (index-aligned with the input
/// batch). Validation failures are per-record: the rejected record gets its
/// error, the rest of the batch proceeds. A log (WAL) failure fails every
/// accepted record and nothing is applied.
struct UpdateBatchResult {
  std::vector<util::Status> statuses;
  /// Records committed to the store (map + index).
  std::size_t applied = 0;
  /// Records rejected by the validate stage (no side effects).
  std::size_t rejected = 0;

  bool all_ok() const { return applied == statuses.size(); }
  /// First non-OK status in batch order (OK when every record applied).
  util::Status first_error() const {
    for (const util::Status& s : statuses) {
      if (!s.ok()) return s;
    }
    return util::Status::Ok();
  }
};

/// Which access method backs range queries.
enum class IndexKind {
  kTimeSpaceRTree,  // the paper's §4 method: o-plane slab boxes
  kLinearScan,      // baseline
  kRouteBand,       // one route-coordinate band entry per object
};

/// Ignored. Convoy tracking was removed; the struct remains only because
/// the benchmark harness still assigns `enabled` (`Bench::StoreOptions` in
/// `perfbench/bench.cc`).
struct GroupTrackingOptions {
  bool enabled = false;
};

/// Moving-objects database options.
struct ModDatabaseOptions {
  IndexKind index_kind = IndexKind::kRouteBand;
  /// O-plane horizon (time span T of §4.2) of both R*-tree kinds, and the
  /// time-space index's slab width (the route-band index ends where the
  /// last slab would); ignored by the linear scan.
  double oplane_horizon = 120.0;
  double oplane_slab_width = 4.0;
  /// Page storage backing the range index's R*-tree nodes (ignored by the
  /// linear scan). The default (memory, unbounded pool) selects a resident
  /// tree that owns its nodes in RAM, with no buffer pool and lock-free
  /// probes. Set `kind = kDisk`
  /// with a `path` and a `pool_pages` budget to bound index memory: nodes
  /// then live in a page file behind a clock-eviction buffer pool, and
  /// `FlushIndexStorage` commits them (the durability manager does this
  /// before each snapshot). The sharded layer adds a ".shard<i>" suffix
  /// per shard. Not persisted in snapshots — storage placement is a
  /// deployment concern, so a restored database uses whatever config its
  /// options carry (default: memory).
  storage::StorageConfig index_storage;
  /// Keep superseded attribute versions per object so position queries at
  /// past times are answered from the motion model that was valid then
  /// (valid-time == transaction-time, paper §2). Off by default: fleets
  /// with high update rates may not want the per-object history growth.
  bool keep_trajectory = false;
  /// Cap on retained past versions per object (0 = unlimited). When the
  /// cap is hit the oldest versions are dropped; queries before the oldest
  /// retained version answer from that version.
  std::size_t max_trajectory_versions = 0;
  /// Ignored (see `GroupTrackingOptions`); not persisted in snapshots.
  GroupTrackingOptions group_tracking;
};

/// The moving-objects database (MOD): stores one position attribute per
/// object, ingests position updates, and answers the paper's two query
/// forms — position queries with deviation bounds (§3.3) and range queries
/// with MUST / MAY semantics (§4).
///
/// Thread-compatibility: the class is not internally synchronised; callers
/// serialise access (matching the paper's instantaneous-update model where
/// valid-time equals transaction-time).
class ModDatabase {
 public:
  /// `network` must outlive the database.
  ModDatabase(const geo::RouteNetwork* network, ModDatabaseOptions options);
  explicit ModDatabase(const geo::RouteNetwork* network)
      : ModDatabase(network, ModDatabaseOptions{}) {}

  ModDatabase(const ModDatabase&) = delete;
  ModDatabase& operator=(const ModDatabase&) = delete;

  /// Registers a moving object with its initial position attribute (the
  /// beginning-of-trip write of all sub-attributes, §3.1). InvalidArgument,
  /// with the store unchanged, for a route with fewer than two distinct
  /// points, a negative speed, a start off the route or any non-finite
  /// numeric field (times, distances, position, speed and the policy
  /// parameters); this holds for every write path.
  util::Status Insert(core::ObjectId id, std::string label,
                      const core::PositionAttribute& attr);

  /// One row of a bulk insertion.
  struct BulkObject {
    core::ObjectId id = core::kInvalidObjectId;
    std::string label;
    core::PositionAttribute attr;
  };

  /// Registers a whole fleet at once. All rows are validated first (the
  /// database is unchanged on failure); the index is built with its packed
  /// bulk path — much faster than per-object `Insert` for large fleets.
  /// Logs one batched WAL record for the whole call instead of one per row
  /// (see `AttachWal` for the mid-batch failure semantics).
  util::Status BulkInsert(std::vector<BulkObject> objects);

  /// Applies a position update from a moving object: replaces
  /// P.starttime, P.speed, P.x/y.startposition (and P.route), keeping the
  /// policy parameters. Fails with NotFound for unknown objects and
  /// InvalidArgument for unknown routes, time regressions or non-finite
  /// fields (as `Insert`). Thin wrapper
  /// over `ApplyUpdateBatch` with a batch of one — there is a single
  /// staged write path.
  util::Status ApplyUpdate(const core::PositionUpdate& update);

  /// Applies a batch of position updates through the four-stage write
  /// path, observably equivalent to applying the records sequentially
  /// with `ApplyUpdate`:
  ///
  ///   1. validate — per-record route/speed/policy checks against the
  ///      batch-local evolving state (a second update to the same object
  ///      validates against the first one's result), no side effects;
  ///      rejected records get their status, the rest proceed.
  ///   2. log — all accepted updates in a single framed `kUpdateBatch` WAL
  ///      record (one CRC frame, one group-commit trigger check; a batch
  ///      of one logs the historical plain record). A failed append fails
  ///      every accepted record and aborts before any memory effect.
  ///   3. mutate — fleet-map commit in batch order; every intermediate
  ///      version lands in the trajectory history exactly as the
  ///      sequential path would.
  ///   4. index-delta — one `ApplyDeltaBatch` call with each touched
  ///      object's *final* merged attribute (per-object dedup: the index
  ///      only ever serves the current model, so intermediate upserts
  ///      would be dead work).
  UpdateBatchResult ApplyUpdateBatch(
      std::span<const core::PositionUpdate> updates);

  /// Removes an object (end of trip).
  util::Status Erase(core::ObjectId id);

  /// Starts a bulk-ingest session: until `FinishBulkIngest`, mutations
  /// skip the range index entirely and only touch the record map, so a
  /// recovery stream applies at map speed. Fails if a WAL is attached
  /// (bulk ingest exists for replay, which must never re-log itself) or a
  /// session is already active. Range/nearest queries during a session may
  /// miss objects — callers finish the session before serving reads.
  util::Status BeginBulkIngest();

  /// Ends the session: rebuilds the index once from the surviving records
  /// via the packed bulk path (~12× faster than repeated insertion,
  /// E10). The rebuild starts from a fresh index so in-session erases and
  /// route changes cannot leave stale entries behind.
  util::Status FinishBulkIngest();

  bool bulk_ingest_active() const { return bulk_ingest_; }

  /// Replaces the stored past attribute versions of `id` (used by snapshot
  /// restore). Versions must be ascending by start time and must not start
  /// after the current version.
  util::Status RestoreTrajectory(core::ObjectId id,
                                 std::vector<core::PositionAttribute> past);

  /// "What is the current position of m?" at time `t`: database position
  /// plus the deviation bounds the DBMS can derive from the policy (§3.3).
  util::Result<PositionAnswer> QueryPosition(core::ObjectId id,
                                             core::Time t) const;

  /// "Retrieve the objects which are inside polygon G at time t0" (§4):
  /// index candidates refined into MUST / MAY sets. An object whose model
  /// starts after t0 is not answered (its model does not cover t0).
  RangeAnswer QueryRange(const geo::Polygon& region, core::Time t) const;

  /// The refinement half of `QueryRange`: classifies `candidates` (already
  /// probed from the index) into MUST / MAY against the stored records.
  /// `QueryRange` is exactly `RefineRange(region, t, Candidates(region, t))`.
  /// The split lets the sharded layer probe the index lock-free (when the
  /// index supports it) and take the shard's reader lock only for this
  /// record-map refinement.
  RangeAnswer RefineRange(const geo::Polygon& region, core::Time t,
                          const std::vector<core::ObjectId>& candidates) const;

  /// The refinement half of `QueryRangeInterval` (swap-tolerant in t1/t2),
  /// mirroring `RefineRange`; candidates come from `CandidatesInWindow`.
  IntervalRangeAnswer RefineRangeInterval(
      const geo::Polygon& region, core::Time t1, core::Time t2,
      core::Duration sample_step,
      const std::vector<core::ObjectId>& candidates) const;

  /// "Retrieve the k objects nearest to `point` at time t", with
  /// uncertainty-aware distance brackets. Uses expanding index probes, so
  /// it stays sublinear for small k on large databases.
  NearestAnswer QueryNearest(const geo::Point2& point, std::size_t k,
                             core::Time t) const;

  /// `QueryNearest` with its two kinds of work injected, for callers that
  /// interleave lock-free index probes with locked record refinement (the
  /// sharded layer's optimistic read path):
  ///   - `probe(region)` returns the index candidates for a probe
  ///     rectangle (called without any lock held by this function);
  ///   - `locked(fn)` runs `fn` — which reads this database's record map —
  ///     under whatever exclusion the caller provides, returning false to
  ///     abort the query (e.g. an optimistic version recheck failed).
  /// Returns true with `*out` filled on success, false (out untouched,
  /// beyond possibly-partial scratch) when a `locked` call vetoed; the
  /// caller then falls back to its fully-locked path. The plain
  /// `QueryNearest` delegates here with trivial lambdas.
  bool QueryNearestSplit(
      const geo::Point2& point, std::size_t k, core::Time t,
      const std::function<std::vector<core::ObjectId>(const geo::Polygon&)>&
          probe,
      const std::function<bool(const std::function<void()>&)>& locked,
      NearestAnswer* out) const;

  /// "Retrieve the objects inside `region` at some time within [t1, t2]".
  /// Each object's window is first clipped to the time its model covers,
  /// [start_time, `ObjectIndex::CoverageEnd`]. `may` is exact over that
  /// clip (the uncertainty interval sweeps continuously, so span-overlap
  /// is equivalent to instant-overlap); `must_at_some_time` is evaluated
  /// at instants spaced `sample_step` apart from the clip's start plus
  /// both clip edges.
  IntervalRangeAnswer QueryRangeInterval(const geo::Polygon& region,
                                         core::Time t1, core::Time t2,
                                         core::Duration sample_step = 1.0) const;

  /// Record lookup.
  util::Result<const MovingObjectRecord*> Get(core::ObjectId id) const;

  /// Registers this database's instruments in `registry` under `prefix`
  /// (counters `<prefix>updates_applied`, `<prefix>inserts`,
  /// `<prefix>erases`, `<prefix>index_probes`, the write-path stage
  /// counters `<prefix>ingest.validate_reject` / `<prefix>ingest.wal_fail`,
  /// the `<prefix>update.apply_latency_us` histogram and the
  /// `<prefix>ingest.batch_size` distribution (records per ApplyUpdateBatch
  /// call; reuses the latency-histogram machinery with its "µs" unit
  /// reading as a record count, like `wal.group_commit_batch`), plus
  /// whatever the index registers under `<prefix>index.` — e.g.
  /// `remove_miss`) and starts updating them;
  /// nullptr detaches. The registry must outlive the database. Several
  /// databases given the same registry and prefix share the instruments —
  /// that is how the sharded layer aggregates across shards. Counter
  /// updates are lock-free, so const queries may bump `index_probes`
  /// concurrently with other readers.
  void SetMetrics(util::MetricsRegistry* registry,
                  const std::string& prefix = "mod.");

  /// Attaches a write-ahead log (nullptr detaches; non-owning — the WAL
  /// must outlive the attachment). Once attached, every mutation is
  /// appended to the log *after* validation but *before* the in-memory
  /// commit, so a WAL append failure aborts the mutation and the log never
  /// trails the memory state. `BulkInsert` and `ApplyUpdateBatch` log one
  /// batched record per call (chunked only near the frame size bound); a
  /// mid-batch append failure leaves the already-logged chunks in the WAL
  /// while the store applies nothing — recovery replays that prefix of the
  /// *logged* record stream, and the poisoned writer guarantees no later
  /// record can land after the hole (batch atomicity is an in-memory
  /// property, durability is per logged record).
  void AttachWal(WalWriter* wal) { wal_ = wal; }
  WalWriter* wal() const { return wal_; }

  /// Attaches the subscription engine (non-owning; must outlive the
  /// attachment; nullptr detaches), which the query language's SUBSCRIBE /
  /// UNSUBSCRIBE / EVENTS statements resolve through `subscriptions()`.
  /// The engine is notified after every committed mutation — insert,
  /// update batch, erase — with the ordered per-record attribute
  /// transitions (see `AttributeDelta`: the stream is per record, not
  /// per-object deduped, so batched and sequential ingest notify
  /// identically). Recovery-style paths that bypass the index
  /// (bulk-ingest sessions, `RestoreTrajectory`) do not notify; finish
  /// recovery before attaching the engine.
  void AttachSubscriptions(SubscriptionEngine* engine) {
    subscriptions_ = engine;
  }
  SubscriptionEngine* subscriptions() const { return subscriptions_; }

  /// Flushes the index's dirty pages and commits its page store (no-op for
  /// in-memory storage). The durability manager calls this before writing
  /// a snapshot so the page file on disk is consistent with the snapshot's
  /// logical state; call it likewise before copying the page file.
  util::Status FlushIndexStorage() { return index_->FlushStorage(); }

  /// Invokes `fn` on every stored record (unspecified order). Used by the
  /// snapshot writer and statistics tooling.
  void ForEachRecord(
      const std::function<void(const MovingObjectRecord&)>& fn) const;

  std::size_t num_objects() const { return records_.size(); }
  /// Position updates accepted since construction (not persisted; a
  /// restored store counts from 0).
  std::uint64_t total_updates() const { return total_updates_; }
  const index::ObjectIndex& object_index() const { return *index_; }
  const geo::RouteNetwork& network() const { return *network_; }
  const ModDatabaseOptions& options() const { return options_; }

  /// Shared handle to the current index, for callers that probe it while
  /// this database may be swapped out from under them (the sharded layer's
  /// lock-free read path keeps the index alive across a shard-remediation
  /// db swap). The handle tracks the index instance current at call time;
  /// `FinishBulkIngest` installs a fresh instance under the same mutex, so
  /// a concurrent caller gets either the old complete index or the new one,
  /// never a torn pointer.
  std::shared_ptr<const index::ObjectIndex> SharedIndex() const {
    std::lock_guard lock(index_mu_);
    return index_;
  }

  /// Bumps the `<prefix>index_probes` counter (lock-free; see `SetMetrics`).
  /// Public so the sharded layer's lock-free probe path, which calls the
  /// index directly through `SharedIndex`, counts its probes identically to
  /// the in-database query paths.
  void CountIndexProbe() const {
    if (index_probes_ != nullptr) index_probes_->Increment();
  }

 private:
  util::Status ValidateAttribute(const core::PositionAttribute& attr) const;
  /// Hands a committed mutation's transition stream to the attached
  /// subscription engine (the pointed-to attributes live only for the
  /// call).
  void NotifyDeltas(std::span<const AttributeDelta> deltas);

  const geo::RouteNetwork* network_;
  ModDatabaseOptions options_;
  std::unordered_map<core::ObjectId, MovingObjectRecord> records_;
  // shared_ptr (not unique_ptr) so `SharedIndex` can hand out handles that
  // outlive a `FinishBulkIngest` swap; `index_mu_` guards only the pointer
  // itself, never index operations.
  std::shared_ptr<index::ObjectIndex> index_;
  mutable std::mutex index_mu_;
  std::uint64_t total_updates_ = 0;
  WalWriter* wal_ = nullptr;  // non-owning, see AttachWal
  SubscriptionEngine* subscriptions_ = nullptr;  // non-owning
  bool bulk_ingest_ = false;  // index updates deferred, see BeginBulkIngest
  // Metrics attachment, remembered so a rebuilt index (FinishBulkIngest)
  // re-registers its instruments. Non-owning, may be null.
  util::MetricsRegistry* metrics_registry_ = nullptr;
  std::string metrics_prefix_;
  // Optional instruments (see SetMetrics); non-owning, may be null.
  util::Counter* updates_applied_ = nullptr;
  util::Counter* inserts_ = nullptr;
  util::Counter* erases_ = nullptr;
  util::Counter* index_probes_ = nullptr;
  util::Counter* validate_rejects_ = nullptr;
  util::Counter* wal_fails_ = nullptr;
  util::LatencyHistogram* apply_latency_ = nullptr;
  util::LatencyHistogram* batch_size_hist_ = nullptr;
};

}  // namespace modb::db

#endif  // MODB_DB_MOD_DATABASE_H_
