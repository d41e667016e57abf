#ifndef MODB_DB_MOD_DATABASE_H_
#define MODB_DB_MOD_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
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
/// error, the rest of the batch proceeds. A log (WAL) or index failure
/// fails every accepted record and nothing is applied.
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
  /// tree that owns its nodes in RAM, with no buffer pool. Set
  /// `kind = kDisk` with a `path` and a `pool_pages` budget to bound index
  /// memory: nodes then live in a scratch page file behind a clock-eviction
  /// buffer pool.
  /// The file is replaced by an empty one when the index is built and is
  /// never synced: every restart rebuilds the index from the snapshot and
  /// the WAL. The
  /// sharded layer adds a ".shard<i>" suffix per shard. Not persisted in
  /// snapshots — storage placement is a deployment concern, so a restored
  /// database uses whatever config its options carry (default: memory).
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

/// One round of `SearchNearest`: probes the square of half-width `half`
/// around the query point in every store the caller reads, sets `*found`
/// to their merged k nearest items (in `NearestAnswer::ItemOrder`) and
/// adds the candidates they refined to `found->candidates_examined`.
/// Returns false when none of those stores held an object.
using NearestRound = std::function<bool(double half, NearestAnswer* found)>;

/// The expanding-square k-nearest search, run once per query whether the
/// objects live in one store or in the shards of many (DESIGN §6). The
/// first square's half-width is the span of `network_box` / 64. The
/// search stops after a round whose k-th item lies within the half-width,
/// whose square covers `network_box` from `point`, or in which no store
/// held an object. Otherwise the next round doubles the half-width (fewer
/// than k items) or widens it to the k-th `db_distance`, and every round
/// after such a widen grows it to at least max(2 × half-width, k-th
/// distance). Every object at most the k-th distance away lies inside the
/// last square, so the last round's items are exact. The answer holds
/// them and every round's candidates.
NearestAnswer SearchNearest(const geo::Box2& network_box,
                            const geo::Point2& point, std::size_t k,
                            const NearestRound& round);

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
  /// parameters); this holds for every write path. Runs the stages of
  /// `ApplyUpdateBatch` with a one-row index delta: a log or index failure
  /// returns its status with no record written (see "In doubt" there).
  util::Status Insert(core::ObjectId id, std::string label,
                      const core::PositionAttribute& attr);

  /// One row of a bulk insertion.
  struct BulkObject {
    core::ObjectId id = core::kInvalidObjectId;
    std::string label;
    core::PositionAttribute attr;
  };

  /// Registers a whole fleet at once, through the stages of
  /// `ApplyUpdateBatch`. All rows are validated first; the index stage
  /// rebuilds the index with its packed bulk path from the stored records
  /// plus the new rows — much faster than per-object `Insert` for large
  /// fleets — and the records are written only once it succeeded, so the
  /// database is unchanged on any failure. Logs one batched WAL record for
  /// the whole call instead of one per row (see `AttachWal` for the
  /// mid-batch failure semantics).
  util::Status BulkInsert(std::vector<BulkObject> objects);

  /// Applies a position update from a moving object: replaces
  /// P.starttime, P.speed, P.x/y.startposition (and P.route), keeping the
  /// policy parameters. Fails with NotFound for unknown objects and
  /// InvalidArgument for unknown routes, time regressions or non-finite
  /// fields (as `Insert`). Thin wrapper
  /// over `ApplyUpdateBatch` with a batch of one — there is a single
  /// staged write path.
  util::Status ApplyUpdate(const core::PositionUpdate& update);

  /// Applies a batch of position updates through the five-stage write
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
  ///   3. index delta — one `ApplyDeltaBatch` call with each touched
  ///      object's *final* merged attribute (per-object dedup: the index
  ///      only ever serves the current model, so intermediate upserts
  ///      would be dead work) and, as `before`, the stored model it
  ///      replaces. A failure fails every accepted record; the record map
  ///      is still untouched, so nothing is rolled back.
  ///   4. notify — the per-record transition stream goes to the attached
  ///      subscription engine (see `AttachSubscriptions`).
  ///   5. commit — the record map takes the batch in batch order; every
  ///      intermediate version lands in the trajectory history exactly as
  ///      the sequential path would.
  ///
  /// Only the log and index stages can fail, and both run before the
  /// commit, so a failed write has nothing to undo. The commit is the only
  /// stage that overwrites a model, so it runs last: until then the index
  /// and notify stages point into the record map for each object's stored
  /// model, and the store keeps no other copy of it.
  ///
  /// In doubt: a write the index stage refuses is already in the log. The
  /// caller gets the index's error, yet re-recovery replays the write, as
  /// it replays the logged chunks of a batch whose later chunk failed to
  /// append (see `AttachWal`). The store's index refuses a validated write
  /// only once its page store is poisoned (`ObjectIndex::storage_status`),
  /// and the sharded store then quarantines the shard.
  UpdateBatchResult ApplyUpdateBatch(
      std::span<const core::PositionUpdate> updates);

  /// Removes an object (end of trip), through the same stages with a
  /// one-row removal delta whose `before` is the stored model. Once logged,
  /// the record goes and OK is returned whatever the index answers: an
  /// entry the index kept is a stale candidate, which query refinement
  /// drops.
  util::Status Erase(core::ObjectId id);

  /// Starts a bulk-ingest session: until `FinishBulkIngest`, mutations
  /// skip the range index entirely and only touch the record map, so a
  /// recovery stream applies at map speed. Fails if a WAL is attached
  /// (bulk ingest exists for replay, which must never re-log itself) or a
  /// session is already active. Range/nearest queries during a session may
  /// miss objects — callers finish the session before serving reads.
  util::Status BeginBulkIngest();

  /// Ends the session: rebuilds the index once from every surviving record
  /// via the packed bulk path (~12× faster than repeated insertion,
  /// E10). The rebuild starts from a fresh index, so a disk-backed one
  /// gets a new page file.
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

  /// "Retrieve the k objects nearest to `point` at time t", with
  /// uncertainty-aware distance brackets: `SearchNearest` over this
  /// store's `NearestInSquare`, so it stays sublinear for small k on large
  /// databases.
  NearestAnswer QueryNearest(const geo::Point2& point, std::size_t k,
                             core::Time t) const;

  /// One round of `SearchNearest` on this store: probes the index once
  /// with the square of half-width `half` around `point`, refines every
  /// candidate whose model covers `t`, and returns the k nearest items in
  /// `NearestAnswer::ItemOrder`, with the probe's yield as
  /// `candidates_examined`.
  NearestAnswer NearestInSquare(const geo::Point2& point, double half,
                                std::size_t k, core::Time t) const;

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
  /// The engine is notified of every mutation the index stage took —
  /// insert, update batch, erase — just before its commit, with the
  /// ordered per-record attribute
  /// transitions (see `AttributeDelta`: the stream is per record, not
  /// per-object deduped, so batched and sequential ingest notify
  /// identically). Recovery-style paths that bypass the index
  /// (bulk-ingest sessions, `RestoreTrajectory`) do not notify; finish
  /// recovery before attaching the engine. Attaching sets the engine's
  /// horizon gate to this store's `oplane_horizon`, so a standing query
  /// sees exactly the models `QueryRange` sees. The store matches into
  /// the engine's partition `partition` (< `num_partitions()`).
  void AttachSubscriptions(SubscriptionEngine* engine,
                           std::size_t partition = 0);
  SubscriptionEngine* subscriptions() const { return subscriptions_; }
  std::size_t subscription_partition() const { return subscription_partition_; }

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

 private:
  util::Status ValidateAttribute(const core::PositionAttribute& attr) const;
  /// Bumps the `<prefix>index_probes` counter (see `SetMetrics`).
  void CountIndexProbe() const {
    if (index_probes_ != nullptr) index_probes_->Increment();
  }
  /// The refinement half of `QueryRange`: classifies `candidates` (already
  /// probed from the index) into MUST / MAY against the stored records.
  RangeAnswer RefineRange(const geo::Polygon& region, core::Time t,
                          const std::vector<core::ObjectId>& candidates) const;
  /// The refinement half of `QueryRangeInterval`; `t1 <= t2`, and the
  /// candidates come from `CandidatesInWindow`.
  IntervalRangeAnswer RefineRangeInterval(
      const geo::Polygon& region, core::Time t1, core::Time t2,
      core::Duration sample_step,
      const std::vector<core::ObjectId>& candidates) const;
  /// Hands an indexed mutation's transition stream to the attached
  /// subscription engine (the pointed-to attributes live only for the
  /// call).
  void NotifyDeltas(std::span<const AttributeDelta> deltas);
  /// One `BulkUpsert` row per stored record, with room for `extra` more.
  std::vector<index::IndexDelta> RecordRows(std::size_t extra) const;

  const geo::RouteNetwork* network_;
  ModDatabaseOptions options_;
  std::unordered_map<core::ObjectId, MovingObjectRecord> records_;
  std::unique_ptr<index::ObjectIndex> index_;
  std::uint64_t total_updates_ = 0;
  WalWriter* wal_ = nullptr;  // non-owning, see AttachWal
  SubscriptionEngine* subscriptions_ = nullptr;  // non-owning
  std::size_t subscription_partition_ = 0;
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
