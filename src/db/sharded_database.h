#ifndef MODB_DB_SHARDED_DATABASE_H_
#define MODB_DB_SHARDED_DATABASE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "db/mod_database.h"
#include "db/recovery.h"
#include "db/shard_supervisor.h"
#include "db/subscription_engine.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace modb::db {

/// Options for the sharded concurrency layer.
struct ShardedModDatabaseOptions {
  /// Sentinel: size the query pool from the hardware at construction.
  static constexpr std::size_t kAutoQueryThreads =
      std::numeric_limits<std::size_t>::max();

  /// Number of shards (>= 1; 0 is promoted to 1). More shards means less
  /// write contention; fan-out queries touch all of them regardless.
  std::size_t num_shards = 8;
  /// Worker threads in the internal fan-out pool. 0 runs fan-outs inline
  /// on the calling thread — the right choice on single-core hosts. The
  /// default (`kAutoQueryThreads`) resolves to
  /// min(num_shards - 1, hardware_concurrency - 1): the calling thread
  /// runs part of every fan-out, so a fan-out over n shards keeps at most
  /// n - 1 workers busy, and a 1-shard store gets none. It is 0 when the
  /// hardware offers no parallelism.
  std::size_t num_query_threads = kAutoQueryThreads;
  /// Options applied to every per-shard `ModDatabase`.
  ModDatabaseOptions db;
  /// Root directory for durability; each shard gets its own WAL and
  /// checkpoints under `<durable_dir>/shard-<i>`. On construction a shard
  /// directory with existing state is recovered (checkpoint + WAL replay);
  /// a fresh one is bootstrapped. Shards recover in parallel on the
  /// fan-out pool, so restart time is bounded by the largest shard; the
  /// recovered state is identical for any pool size. Empty disables
  /// durability (pure in-memory, the previous behaviour).
  std::string durable_dir;
  /// WAL + checkpoint knobs, used when `durable_dir` is set.
  DurabilityOptions durability;
  /// Continuous queries: when true, the store owns one
  /// `SubscriptionEngine` with a partition per shard; `Subscribe` registers
  /// a standing query once, each shard matches the objects it owns into
  /// its own partition, and `TakeSubscriptionEvents` drains the
  /// deterministically merged event stream. The engine's horizon is
  /// `db.oplane_horizon`, so a standing query sees exactly the models
  /// `QueryRange` sees.
  bool enable_subscriptions = false;
  /// Failure-domain isolation (see `ShardSupervisor`): faults quarantine
  /// their shard instead of wedging the store; quarantined shards reject
  /// writes with `Unavailable`, fan-out answers turn partial, and a
  /// background loop re-runs recovery under capped backoff until the
  /// shard is re-admitted.
  ShardSupervisorOptions supervisor;
};

/// Concurrency layer over `ModDatabase`: N shards keyed by ObjectId hash,
/// each wrapping one single-threaded `ModDatabase` behind a shared mutex.
///
/// Writes (`Insert` / `ApplyUpdate` / `Erase`) take the owning shard's
/// exclusive lock, so updates to different shards proceed in parallel.
/// Fan-out queries (`QueryRange` / `QueryNearest` / `QueryRangeInterval`)
/// run the per-shard query, index probe and refinement alike, under that
/// shard's shared lock on the internal thread pool, and merge: MUST / MAY
/// unions re-sorted by id, and a global top-k re-merge for nearest.
///
/// Consistency: per-object operations are linearisable (one shard, one
/// lock). A fan-out query does not freeze the whole database — each shard
/// is read atomically, but concurrent updates may land between shard
/// visits, exactly as if the query and updates had been serialised in some
/// order per shard. This matches the paper's instantaneous-update model,
/// where answers are only ever as fresh as the last update anyway.
///
/// All instruments live in an internal lock-free-read `MetricsRegistry`
/// (per-shard databases share the `mod.*` counters; the layer adds
/// `sharded.*` query counters and latency histograms), dumped as text by
/// `DumpMetrics()`.
///
/// Failure domains: each shard is supervised (see `ShardSupervisor`). A
/// fault — WAL poison, index storage poison, durability bootstrap failure,
/// an Internal write status — quarantines only its shard: writes routed
/// there return `Unavailable` with a retry-after hint, fan-out queries keep
/// answering from the surviving shards with `completeness` marking the
/// exclusion (MUST stays sound per object; MAY becomes a lower bound), and
/// the supervisor re-runs that shard's recovery under capped backoff until
/// it is re-admitted — the shard's subscription partition is silently
/// re-primed from the recovered state, so the merged event stream
/// continues as if the fault never happened.
class ShardedModDatabase {
 public:
  using BulkObject = ModDatabase::BulkObject;

  /// `network` must outlive the database.
  ShardedModDatabase(const geo::RouteNetwork* network,
                     ShardedModDatabaseOptions options);
  explicit ShardedModDatabase(const geo::RouteNetwork* network)
      : ShardedModDatabase(network, ShardedModDatabaseOptions{}) {}

  ShardedModDatabase(const ShardedModDatabase&) = delete;
  ShardedModDatabase& operator=(const ShardedModDatabase&) = delete;

  util::Status Insert(core::ObjectId id, std::string label,
                      const core::PositionAttribute& attr);

  /// Partitions the batch by shard and bulk-loads the shards in parallel.
  /// On failure the shards that had already loaded their partition are
  /// rolled back, so the database is unchanged (same contract as
  /// `ModDatabase::BulkInsert`).
  util::Status BulkInsert(std::vector<BulkObject> objects);

  util::Status ApplyUpdate(const core::PositionUpdate& update);

  /// Staged batch ingest across shards: partitions the batch by owning
  /// shard (input order preserved within a shard, so same-object updates
  /// stay ordered), runs each non-empty sub-batch through that shard's
  /// `ModDatabase::ApplyUpdateBatch` in parallel on the internal pool —
  /// one WAL frame and one grouped index delta per shard — and scatters
  /// the per-record statuses back into input order. Equivalent to calling
  /// `ApplyUpdate` per record sequentially, but with the per-call lock,
  /// log, and tree-touch costs paid once per shard instead of once per
  /// update.
  UpdateBatchResult ApplyUpdateBatch(
      std::span<const core::PositionUpdate> updates);

  util::Status Erase(core::ObjectId id);

  util::Result<PositionAnswer> QueryPosition(core::ObjectId id,
                                             core::Time t) const;
  RangeAnswer QueryRange(const geo::Polygon& region, core::Time t) const;
  NearestAnswer QueryNearest(const geo::Point2& point, std::size_t k,
                             core::Time t) const;
  IntervalRangeAnswer QueryRangeInterval(
      const geo::Polygon& region, core::Time t1, core::Time t2,
      core::Duration sample_step = 1.0) const;

  /// Copy of the record (a pointer into a shard would dangle once the
  /// shard lock is released, so the concurrent API copies).
  util::Result<MovingObjectRecord> GetRecord(core::ObjectId id) const;

  /// Invokes `fn` on every stored record, shard by shard (unspecified
  /// order). Each shard is read under its shared lock; `fn` must not call
  /// back into this database's write API (self-deadlock).
  void ForEachRecord(
      const std::function<void(const MovingObjectRecord&)>& fn) const;

  std::size_t num_objects() const;
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_query_threads() const { return pool_.num_threads(); }
  const geo::RouteNetwork& network() const { return *network_; }

  /// Shard that owns `id` (stable hash; exposed for tests and tooling).
  std::size_t ShardOf(core::ObjectId id) const;

  /// Register / drop a standing query in the store's one registry, under
  /// every shard's exclusive lock (taken in shard order), so no shard
  /// matches while it changes. FailedPrecondition when
  /// `enable_subscriptions` is off.
  util::Status Subscribe(SubscriptionId id, const SubscriptionSpec& spec);
  util::Status Unsubscribe(SubscriptionId id);
  bool subscriptions_enabled() const { return subscriptions_ != nullptr; }
  std::size_t num_subscriptions() const;

  /// Drains the merged cross-shard event stream (oldest mutation first).
  /// Events of one mutation call are ordered deterministically — by input
  /// record slot, then subscription id — regardless of shard count or
  /// fan-out timing, so the stream is byte-identical to an unsharded
  /// database fed the same mutations.
  std::vector<SubscriptionEvent> TakeSubscriptionEvents();

  util::MetricsRegistry& metrics() { return metrics_; }

  /// Checkpoints every durable shard — per-shard snapshot plus WAL
  /// truncation — in parallel on the fan-out pool, each under its own
  /// exclusive lock (the store keeps serving shards not currently locked).
  /// Shard failures are isolated: every shard attempts its checkpoint
  /// regardless of the others, a failed shard keeps its previous WAL
  /// attached and intact (a shard's log is never truncated before its
  /// replacement snapshot is durably synced and published), and the error
  /// names each failed shard and how many succeeded. FailedPrecondition
  /// when durability is off.
  util::Status Checkpoint();

  /// OK when durability is off or every shard bootstrapped/recovered. A
  /// failed shard is quarantined (the supervisor keeps retrying its
  /// recovery); the rest of the store stays usable.
  const util::Status& durability_status() const { return durability_status_; }

  /// The failure-domain supervisor: per-shard health, quarantine reasons,
  /// manual recovery stepping (`TryRecoverShard`), `AwaitAllAvailable`.
  ShardSupervisor& supervisor() { return *supervisor_; }
  const ShardSupervisor& supervisor() const { return *supervisor_; }

  /// Health of shard `s`.
  ShardHealth shard_health(std::size_t s) const {
    return supervisor_->health(s);
  }

  /// Aggregated recovery outcome across shards (sums of counts; `clean`
  /// is the conjunction). Default-constructed when durability is off.
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  /// Text dump of every counter and latency histogram plus per-shard
  /// object counts — the monitoring endpoint used by the throughput
  /// benchmark.
  std::string DumpMetrics() const;

 private:
  struct alignas(64) Shard {
    // Guards every operation on `db`, and the pointer itself (a
    // remediation swaps it under the exclusive lock).
    mutable std::shared_mutex mu;
    std::unique_ptr<ModDatabase> db;
    // Owns the shard's WAL; declared after db (destroyed first) so the WAL
    // detaches from a still-live database.
    std::unique_ptr<DurabilityManager> durability;
  };

  /// Every shard's exclusive lock, taken in shard order.
  std::vector<std::unique_lock<std::shared_mutex>> LockAllShards();

  /// Runs `per_shard(shard_index)` for every shard on the pool (inline
  /// when the pool is empty) and blocks until all shards finished.
  void FanOut(const std::function<void(std::size_t)>& per_shard) const;

  /// The step every write to shard `s` runs: take the shard's exclusive
  /// lock, call `write` on its store, drain the shard's subscription
  /// partition, and check the status `write` returns for a fault
  /// (`NoteWriteOutcome`); returns that status. The drained events go to
  /// `*held_events` when it is given (a fan-out merges them after every
  /// shard is done), else they are published before the lock is released.
  /// Fan-outs run it for different shards at once.
  template <typename Write>
  util::Status WriteShard(std::size_t s, const Write& write,
                          std::vector<SubscriptionEvent>* held_events =
                              nullptr);

  /// Appends an already-merged event run to the pending stream under the
  /// events mutex.
  void PublishShardEvents(std::vector<SubscriptionEvent> events);

  /// Merges per-shard range answers: concatenate, re-sort by id, dedup
  /// (objects are shard-owned, so duplicates are defensive-only — see the
  /// seeded multi-shard determinism tests).
  static RangeAnswer MergeRangeAnswers(std::vector<RangeAnswer> per_shard,
                                       core::Time t);

  /// Read fan-out skip set: marks non-readable shards in `skip` (sized to
  /// the fleet) and returns the matching completeness record.
  QueryCompleteness ExcludedShards(std::vector<char>* skip) const;

  /// Fault check after a write to shard `s` (shard lock held): a poisoned
  /// WAL, a poisoned index (`ObjectIndex::storage_status`, whatever
  /// `status` says) or an Internal write status quarantines the shard.
  /// Normal rejections (NotFound, AlreadyExists, InvalidArgument...) are
  /// not faults.
  void NoteWriteOutcome(std::size_t s, const util::Status& status);

  /// One re-recovery attempt for shard `s` — the supervisor's remediation
  /// callback. Takes the shard's exclusive lock. Two flavours: a poisoned
  /// WAL on an intact store is rotated in place (`TryReopenWal` +
  /// checkpoint); anything else replays the shard's durable home into a
  /// fresh store and swaps it in, re-attaching it to its subscription
  /// partition (silently re-primed).
  util::Status RemediateShard(std::size_t s);

  /// Durable home of shard `i` (`<durable_dir>/shard-<i>`).
  std::string ShardDirOf(std::size_t i) const;
  /// Options of shard `i`'s store: `options_.db` with the index page file
  /// (disk storage) suffixed ".shard<i>", so no two shards share one.
  ModDatabaseOptions ShardDbOptions(std::size_t i) const;

  const geo::RouteNetwork* network_;
  // Retained for remediation: rebuilding a shard needs the same db/
  // durability options the constructor used.
  ShardedModDatabaseOptions options_;
  util::MetricsRegistry metrics_;
  util::Status durability_status_;
  RecoveryReport recovery_report_;
  // The standing queries, partition i fed by shard i (null when
  // `enable_subscriptions` is off); declared before shards_, so it
  // outlives the stores that point at it.
  std::unique_ptr<SubscriptionEngine> subscriptions_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Merged cross-shard subscription events awaiting TakeSubscriptionEvents.
  std::mutex events_mu_;
  std::vector<SubscriptionEvent> pending_events_;
  // Declared after shards_ (destroyed first) and mutable because fan-out
  // queries are logically const but need to schedule work.
  mutable util::ThreadPool pool_;
  // Declared after pool_ and shards_: destroyed first, which joins the
  // remediation thread while the shards it may be recovering are still
  // alive.
  std::unique_ptr<ShardSupervisor> supervisor_;

  // Cached instrument handles (owned by metrics_).
  util::Counter* queries_range_;
  util::Counter* queries_nearest_;
  util::Counter* queries_interval_;
  util::Counter* queries_position_;
  util::LatencyHistogram* latency_range_;
  util::LatencyHistogram* latency_nearest_;
  util::LatencyHistogram* latency_interval_;
  util::LatencyHistogram* latency_update_;
};

}  // namespace modb::db

#endif  // MODB_DB_SHARDED_DATABASE_H_
