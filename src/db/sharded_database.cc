#include "db/sharded_database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <tuple>

namespace modb::db {

namespace {

// SplitMix64 finaliser: ObjectIds are often sequential, and libstdc++'s
// std::hash<uint64_t> is the identity, which would shard round-robin but
// correlate with any id-structured workload. A real mix decorrelates.
std::uint64_t MixId(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t ResolveQueryThreads(const ShardedModDatabaseOptions& options,
                                std::size_t num_shards) {
  if (options.num_query_threads !=
      ShardedModDatabaseOptions::kAutoQueryThreads) {
    return options.num_query_threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return 0;  // fan out inline; extra threads only thrash
  // The caller runs part of every fan-out, so n shards keep at most n - 1
  // helpers busy.
  return std::min<std::size_t>(num_shards - 1, hw - 1);
}

// Merges one call's per-shard event runs into one deterministic stream:
// shard-local ordinals become global input slots (`slots[s][j]` is the
// input slot of shard s's j-th record), then events sort by (slot,
// subscription id). At most one event exists per (record, subscription)
// pair, so the order is total and independent of shard count and fan-out
// timing.
std::vector<SubscriptionEvent> MergeShardEvents(
    std::vector<std::vector<SubscriptionEvent>> shard_events,
    const std::vector<std::vector<std::size_t>>& slots) {
  std::vector<SubscriptionEvent> merged;
  for (std::size_t s = 0; s < shard_events.size(); ++s) {
    for (SubscriptionEvent& event : shard_events[s]) {
      event.ordinal = slots[s][event.ordinal];
      merged.push_back(std::move(event));
    }
  }
  std::sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    return std::tie(a.ordinal, a.subscription) <
           std::tie(b.ordinal, b.subscription);
  });
  return merged;
}

}  // namespace

ShardedModDatabase::ShardedModDatabase(const geo::RouteNetwork* network,
                                       ShardedModDatabaseOptions options)
    : network_(network),
      options_(std::move(options)),
      pool_(ResolveQueryThreads(
          options_, std::max<std::size_t>(options_.num_shards, 1))) {
  const std::size_t num_shards = std::max<std::size_t>(options_.num_shards, 1);
  supervisor_ = std::make_unique<ShardSupervisor>(num_shards,
                                                  options_.supervisor,
                                                  &metrics_);
  if (options_.enable_subscriptions) {
    subscriptions_ = std::make_unique<SubscriptionEngine>(
        network, SubscriptionEngine::Options{}, num_shards);
    subscriptions_->SetMetrics(&metrics_, "sub.");
  }
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->db = std::make_unique<ModDatabase>(network, ShardDbOptions(i));
    shard->db->SetMetrics(&metrics_);  // shards share the mod.* counters
    if (subscriptions_ != nullptr) {
      shard->db->AttachSubscriptions(subscriptions_.get(), i);
    }
    shards_.push_back(std::move(shard));
  }

  if (!options_.durable_dir.empty()) {
    // Recover every shard in parallel on the fan-out pool: restart time is
    // bounded by the largest shard, not the sum. Each worker touches only
    // its own shard; aggregation below runs after the barrier, in shard
    // order, so the report (and which error wins) is deterministic
    // regardless of thread count.
    const auto started = std::chrono::steady_clock::now();
    std::vector<util::Status> statuses(num_shards);
    FanOut([&](std::size_t i) {
      auto durability = DurabilityManager::Open(shards_[i]->db.get(),
                                                ShardDirOf(i),
                                                options_.durability);
      if (durability.ok()) {
        shards_[i]->durability = std::move(*durability);
      } else {
        statuses[i] = durability.status();
      }
    });
    for (std::size_t i = 0; i < num_shards; ++i) {
      if (!statuses[i].ok()) {
        if (durability_status_.ok()) durability_status_ = statuses[i];
        // A shard whose durable home failed to open is a failure domain
        // down at birth: quarantine it and let the remediation loop keep
        // retrying the recovery instead of silently serving an
        // in-memory-only shard that forgets everything it is told.
        supervisor_->ReportFault(i, statuses[i]);
        continue;
      }
      // Shards share the wal.* / recovery.* instruments, mirroring the
      // mod.* aggregation above.
      shards_[i]->durability->ExportMetrics(&metrics_);
      const RecoveryReport& r = shards_[i]->durability->recovery_report();
      recovery_report_.recovered |= r.recovered;
      recovery_report_.checkpoint_id =
          std::max(recovery_report_.checkpoint_id, r.checkpoint_id);
      recovery_report_.checkpoints_skipped += r.checkpoints_skipped;
      recovery_report_.objects_restored += r.objects_restored;
      recovery_report_.wal_records_replayed += r.wal_records_replayed;
      recovery_report_.wal_records_skipped += r.wal_records_skipped;
      recovery_report_.wal_bytes_truncated += r.wal_bytes_truncated;
      recovery_report_.wal_corrupt_segments += r.wal_corrupt_segments;
      if (!r.clean) {
        recovery_report_.clean = false;
        if (recovery_report_.detail.empty()) {
          recovery_report_.detail = r.detail;
        }
        // Unclean recovery (truncated/skipped records) still serves — the
        // store holds the last consistent prefix — but the shard is
        // marked degraded so the loss is visible in the health gauges.
        supervisor_->ReportDegraded(
            i, util::Status::Internal("unclean recovery: " + r.detail));
      }
    }
    // Elapsed fan-out time, not the per-shard sum — what a restart costs.
    recovery_report_.duration_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();
  }
  queries_range_ = metrics_.GetCounter("sharded.queries_range");
  queries_nearest_ = metrics_.GetCounter("sharded.queries_nearest");
  queries_interval_ = metrics_.GetCounter("sharded.queries_interval");
  queries_position_ = metrics_.GetCounter("sharded.queries_position");
  latency_range_ = metrics_.GetLatency("sharded.query_range");
  latency_nearest_ = metrics_.GetLatency("sharded.query_nearest");
  latency_interval_ = metrics_.GetLatency("sharded.query_interval");
  latency_update_ = metrics_.GetLatency("sharded.apply_update");

  // Last: the remediation loop may fire as soon as it starts (a shard can
  // already be quarantined from the recovery pass above), so every member
  // it touches must be fully built first.
  supervisor_->Start([this](std::size_t s) { return RemediateShard(s); });
}

std::string ShardedModDatabase::ShardDirOf(std::size_t i) const {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04zu", i);
  return (std::filesystem::path(options_.durable_dir) / name).string();
}

ModDatabaseOptions ShardedModDatabase::ShardDbOptions(std::size_t i) const {
  ModDatabaseOptions db_options = options_.db;
  if (db_options.index_storage.kind == storage::StorageKind::kDisk) {
    db_options.index_storage.path += ".shard" + std::to_string(i);
  }
  return db_options;
}

std::size_t ShardedModDatabase::ShardOf(core::ObjectId id) const {
  return static_cast<std::size_t>(MixId(id) % shards_.size());
}

template <typename Write>
util::Status ShardedModDatabase::WriteShard(
    std::size_t s, const Write& write,
    std::vector<SubscriptionEvent>* held_events) {
  Shard& shard = *shards_[s];
  std::unique_lock lock(shard.mu);
  util::Status status = write(*shard.db);
  if (subscriptions_ != nullptr) {
    // Drained under the shard's exclusive lock, so the run holds exactly
    // this write's events. A single write publishes them before the lock
    // is released, so events of serialised same-shard writes never invert.
    std::vector<SubscriptionEvent> events = subscriptions_->TakeEvents(s);
    if (held_events != nullptr) {
      *held_events = std::move(events);
    } else {
      PublishShardEvents(std::move(events));
    }
  }
  NoteWriteOutcome(s, status);
  return status;
}

util::Status ShardedModDatabase::Insert(core::ObjectId id, std::string label,
                                        const core::PositionAttribute& attr) {
  const std::size_t s = ShardOf(id);
  if (!supervisor_->writable(s)) return supervisor_->UnavailableStatus(s);
  return WriteShard(s, [&](ModDatabase& db) {
    return db.Insert(id, std::move(label), attr);
  });
}

util::Status ShardedModDatabase::BulkInsert(std::vector<BulkObject> objects) {
  // Reject cross-shard duplicate ids up front (per-shard BulkInsert only
  // sees its own partition). `rows[s][j]` is the global input slot of
  // shard s's j-th row, for the event-ordinal rewrite below.
  std::vector<std::vector<BulkObject>> partitions(shards_.size());
  std::vector<std::vector<std::size_t>> rows(shards_.size());
  {
    std::unordered_map<core::ObjectId, bool> batch_ids;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      BulkObject& object = objects[i];
      if (batch_ids.contains(object.id)) {
        return util::Status::AlreadyExists("object " +
                                           std::to_string(object.id));
      }
      batch_ids.emplace(object.id, true);
      const std::size_t s = ShardOf(object.id);
      // All-or-nothing contract: a bulk load that would touch a
      // quarantined shard fails whole, up front, before any shard loads.
      if (!supervisor_->writable(s)) return supervisor_->UnavailableStatus(s);
      rows[s].push_back(i);
      partitions[s].push_back(std::move(object));
    }
  }

  std::vector<util::Status> statuses(shards_.size());
  std::vector<std::vector<SubscriptionEvent>> shard_events(shards_.size());
  FanOut([&](std::size_t s) {
    if (partitions[s].empty()) return;
    // Copied (not moved) into the shard so the partition is still around
    // for cross-shard rollback below. The events are held back until the
    // whole call is known to succeed, and discarded on rollback.
    statuses[s] = WriteShard(
        s, [&](ModDatabase& db) { return db.BulkInsert(partitions[s]); },
        &shard_events[s]);
  });

  util::Status first_error;
  for (const util::Status& s : statuses) {
    if (!s.ok()) {
      first_error = s;
      break;
    }
  }
  if (first_error.ok()) {
    PublishShardEvents(MergeShardEvents(std::move(shard_events), rows));
    return util::Status::Ok();
  }

  // Atomicity across shards: undo the partitions that did load. The undo
  // erases re-notify the engine; those events (and the held-back
  // insert events) describe a batch that never happened, so both are
  // drained and dropped — engine membership state round-trips to Outside
  // either way.
  FanOut([&](std::size_t s) {
    if (partitions[s].empty() || !statuses[s].ok()) return;
    Shard& shard = *shards_[s];
    std::unique_lock lock(shard.mu);
    for (const BulkObject& object : partitions[s]) {
      (void)shard.db->Erase(object.id);
    }
    if (subscriptions_ != nullptr) (void)subscriptions_->TakeEvents(s);
  });
  return first_error;
}

util::Status ShardedModDatabase::ApplyUpdate(
    const core::PositionUpdate& update) {
  util::ScopedLatencyTimer timer(latency_update_);
  const std::size_t s = ShardOf(update.object);
  if (!supervisor_->writable(s)) return supervisor_->UnavailableStatus(s);
  return WriteShard(
      s, [&](ModDatabase& db) { return db.ApplyUpdate(update); });
}

UpdateBatchResult ShardedModDatabase::ApplyUpdateBatch(
    std::span<const core::PositionUpdate> updates) {
  util::ScopedLatencyTimer timer(latency_update_);
  UpdateBatchResult result;
  result.statuses.assign(updates.size(), util::Status::Ok());
  if (updates.empty()) return result;

  // Partition by owning shard, remembering each record's input slot so the
  // per-record statuses scatter back in order. Same-object updates hash to
  // the same shard with relative order preserved, so the batch-local
  // validation inside the shard sees them exactly as the sequential path
  // would.
  std::vector<std::vector<core::PositionUpdate>> parts(shards_.size());
  std::vector<std::vector<std::size_t>> members(shards_.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const std::size_t s = ShardOf(updates[i].object);
    // Per-record isolation: records routed to a quarantined shard are
    // rejected `Unavailable` in place (retryable once the shard heals);
    // the rest of the batch proceeds — a down shard must not wedge the
    // whole fleet's ingest.
    if (!supervisor_->writable(s)) {
      result.statuses[i] = supervisor_->UnavailableStatus(s);
      ++result.rejected;
      continue;
    }
    parts[s].push_back(updates[i]);
    members[s].push_back(i);
  }

  std::vector<UpdateBatchResult> per_shard(shards_.size());
  std::vector<std::vector<SubscriptionEvent>> shard_events(shards_.size());
  FanOut([&](std::size_t s) {
    if (parts[s].empty()) return;
    WriteShard(
        s,
        [&](ModDatabase& db) {
          per_shard[s] = db.ApplyUpdateBatch(parts[s]);
          // The first Internal status (if any) is the representative fault
          // of the shard's whole sub-batch.
          for (const util::Status& st : per_shard[s].statuses) {
            if (st.code() == util::StatusCode::kInternal) return st;
          }
          return util::Status::Ok();
        },
        &shard_events[s]);
  });

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::size_t j = 0; j < members[s].size(); ++j) {
      result.statuses[members[s][j]] = std::move(per_shard[s].statuses[j]);
    }
    result.applied += per_shard[s].applied;
    result.rejected += per_shard[s].rejected;
  }

  PublishShardEvents(MergeShardEvents(std::move(shard_events), members));
  return result;
}

util::Status ShardedModDatabase::Erase(core::ObjectId id) {
  const std::size_t s = ShardOf(id);
  if (!supervisor_->writable(s)) return supervisor_->UnavailableStatus(s);
  return WriteShard(s, [&](ModDatabase& db) { return db.Erase(id); });
}

std::vector<std::unique_lock<std::shared_mutex>>
ShardedModDatabase::LockAllShards() {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mu);
  return locks;
}

util::Status ShardedModDatabase::Subscribe(SubscriptionId id,
                                           const SubscriptionSpec& spec) {
  if (subscriptions_ == nullptr) {
    return util::Status::FailedPrecondition(
        "subscriptions are not enabled on this database");
  }
  const auto locks = LockAllShards();
  return subscriptions_->Subscribe(id, spec);
}

util::Status ShardedModDatabase::Unsubscribe(SubscriptionId id) {
  if (subscriptions_ == nullptr) {
    return util::Status::FailedPrecondition(
        "subscriptions are not enabled on this database");
  }
  const auto locks = LockAllShards();
  return subscriptions_->Unsubscribe(id);
}

std::size_t ShardedModDatabase::num_subscriptions() const {
  if (subscriptions_ == nullptr) return 0;
  // Any one shard's lock keeps the registry still: its writers hold all.
  std::shared_lock lock(shards_[0]->mu);
  return subscriptions_->num_subscriptions();
}

void ShardedModDatabase::PublishShardEvents(
    std::vector<SubscriptionEvent> events) {
  if (events.empty()) return;
  std::lock_guard lock(events_mu_);
  pending_events_.insert(pending_events_.end(),
                         std::make_move_iterator(events.begin()),
                         std::make_move_iterator(events.end()));
}

std::vector<SubscriptionEvent> ShardedModDatabase::TakeSubscriptionEvents() {
  std::lock_guard lock(events_mu_);
  std::vector<SubscriptionEvent> out = std::move(pending_events_);
  pending_events_.clear();
  return out;
}

util::Result<PositionAnswer> ShardedModDatabase::QueryPosition(
    core::ObjectId id, core::Time t) const {
  queries_position_->Increment();
  const std::size_t s = ShardOf(id);
  // A per-object query has no partial fallback: the one shard that could
  // answer is down, so the typed Unavailable (with the retry hint) is the
  // honest answer.
  if (!supervisor_->readable(s)) return supervisor_->UnavailableStatus(s);
  const Shard& shard = *shards_[s];
  std::shared_lock lock(shard.mu);
  return shard.db->QueryPosition(id, t);
}

QueryCompleteness ShardedModDatabase::ExcludedShards(
    std::vector<char>* skip) const {
  QueryCompleteness completeness;
  skip->assign(shards_.size(), 0);
  // Snapshot the skip set once, up front: a shard healing mid-fan-out must
  // not make the answer's excluded list disagree with the shards actually
  // probed.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (supervisor_->readable(s)) continue;
    (*skip)[s] = 1;
    completeness.complete = false;
    completeness.excluded_shards.push_back(s);
  }
  return completeness;
}

void ShardedModDatabase::FanOut(
    const std::function<void(std::size_t)>& per_shard) const {
  pool_.ParallelFor(shards_.size(), per_shard);
}

RangeAnswer ShardedModDatabase::QueryRange(const geo::Polygon& region,
                                           core::Time t) const {
  queries_range_->Increment();
  util::ScopedLatencyTimer timer(latency_range_);
  std::vector<char> skip;
  QueryCompleteness completeness = ExcludedShards(&skip);
  std::vector<RangeAnswer> per_shard(shards_.size());
  FanOut([&](std::size_t s) {
    if (skip[s] != 0) return;
    const Shard& shard = *shards_[s];
    std::shared_lock lock(shard.mu);
    per_shard[s] = shard.db->QueryRange(region, t);
  });
  RangeAnswer merged = MergeRangeAnswers(std::move(per_shard), t);
  merged.completeness = std::move(completeness);
  return merged;
}

RangeAnswer ShardedModDatabase::MergeRangeAnswers(
    std::vector<RangeAnswer> per_shard, core::Time t) {
  RangeAnswer merged;
  merged.query_time = t;
  for (RangeAnswer& a : per_shard) {
    merged.candidates_examined += a.candidates_examined;
    merged.must.insert(merged.must.end(), a.must.begin(), a.must.end());
    merged.may.insert(merged.may.end(), a.may.begin(), a.may.end());
    merged.may_probability.insert(merged.may_probability.end(),
                                  a.may_probability.begin(),
                                  a.may_probability.end());
  }
  // Sorted within each shard but not across them. Every object lives on
  // one shard, so the dedup is defensive only.
  merged.SortById();
  return merged;
}

NearestAnswer ShardedModDatabase::QueryNearest(const geo::Point2& point,
                                               std::size_t k,
                                               core::Time t) const {
  queries_nearest_->Increment();
  util::ScopedLatencyTimer timer(latency_nearest_);
  NearestAnswer merged;
  merged.query_time = t;
  if (k == 0) return merged;

  std::vector<char> skip;
  merged.completeness = ExcludedShards(&skip);
  std::vector<NearestAnswer> per_shard(shards_.size());
  FanOut([&](std::size_t s) {
    if (skip[s] != 0) return;
    const Shard& shard = *shards_[s];
    std::shared_lock lock(shard.mu);
    per_shard[s] = shard.db->QueryNearest(point, k, t);
  });

  // Global top-k re-merge: every shard returned its own k best, so the
  // union contains the global k best.
  for (NearestAnswer& a : per_shard) {
    merged.candidates_examined += a.candidates_examined;
    merged.items.insert(merged.items.end(), a.items.begin(), a.items.end());
  }
  std::sort(merged.items.begin(), merged.items.end(),
            NearestAnswer::ItemOrder);
  if (merged.items.size() > k) merged.items.resize(k);
  return merged;
}

IntervalRangeAnswer ShardedModDatabase::QueryRangeInterval(
    const geo::Polygon& region, core::Time t1, core::Time t2,
    core::Duration sample_step) const {
  queries_interval_->Increment();
  util::ScopedLatencyTimer timer(latency_interval_);
  std::vector<char> skip;
  QueryCompleteness completeness = ExcludedShards(&skip);
  std::vector<IntervalRangeAnswer> per_shard(shards_.size());
  FanOut([&](std::size_t s) {
    if (skip[s] != 0) return;
    const Shard& shard = *shards_[s];
    std::shared_lock lock(shard.mu);
    per_shard[s] = shard.db->QueryRangeInterval(region, t1, t2, sample_step);
  });

  IntervalRangeAnswer merged;
  merged.completeness = std::move(completeness);
  merged.window_start = std::min(t1, t2);
  merged.window_end = std::max(t1, t2);
  for (IntervalRangeAnswer& a : per_shard) {
    merged.candidates_examined += a.candidates_examined;
    merged.may.insert(merged.may.end(), a.may.begin(), a.may.end());
    merged.must_at_some_time.insert(merged.must_at_some_time.end(),
                                    a.must_at_some_time.begin(),
                                    a.must_at_some_time.end());
  }
  merged.SortById();  // as in MergeRangeAnswers
  return merged;
}

util::Result<MovingObjectRecord> ShardedModDatabase::GetRecord(
    core::ObjectId id) const {
  const std::size_t s = ShardOf(id);
  if (!supervisor_->readable(s)) return supervisor_->UnavailableStatus(s);
  const Shard& shard = *shards_[s];
  std::shared_lock lock(shard.mu);
  auto result = shard.db->Get(id);
  if (!result.ok()) return result.status();
  return **result;  // copy out while the lock is held
}

void ShardedModDatabase::ForEachRecord(
    const std::function<void(const MovingObjectRecord&)>& fn) const {
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    shard->db->ForEachRecord(fn);
  }
}

std::size_t ShardedModDatabase::num_objects() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    total += shard->db->num_objects();
  }
  return total;
}

util::Status ShardedModDatabase::Checkpoint() {
  bool any = false;
  for (const auto& shard : shards_) {
    if (shard->durability != nullptr) {
      any = true;
      break;
    }
  }
  if (!any) {
    return util::Status::FailedPrecondition("durability is not enabled");
  }

  // Every durable shard attempts its checkpoint, in parallel, regardless
  // of how the others fare — one failing shard must not leave the rest
  // un-checkpointed (the old behaviour aborted on first error, so shard K
  // failing starved shards K+1..N of their checkpoint forever). A failed
  // shard keeps its previous WAL attached and intact: DurabilityManager
  // publishes the new snapshot and opens the new epoch before any
  // truncation, so no shard's log is cut before its replacement snapshot
  // is durably synced.
  std::vector<util::Status> statuses(shards_.size());
  std::vector<char> attempted(shards_.size(), 0);
  FanOut([&](std::size_t s) {
    Shard& shard = *shards_[s];
    if (shard.durability == nullptr) return;
    // Quarantined/recovering shards are the remediation loop's to fix
    // (its re-admission path checkpoints); skipping them keeps a routine
    // fleet checkpoint from racing the recovery swap.
    if (!supervisor_->writable(s)) return;
    attempted[s] = 1;
    std::unique_lock lock(shard.mu);
    statuses[s] = shard.durability->Checkpoint();
    // A failure that poisoned the WAL is a hard fault: quarantine (under
    // the shard lock, like every write-path fault check). A failure that
    // left the old WAL attached and intact is handled as the soft tier
    // below.
    if (!statuses[s].ok()) NoteWriteOutcome(s, util::Status::Ok());
  });

  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::string detail;
  for (std::size_t s = 0; s < statuses.size(); ++s) {
    if (attempted[s] == 0) continue;
    if (statuses[s].ok()) {
      ++succeeded;
      supervisor_->ClearDegraded(s);
      continue;
    }
    ++failed;
    if (supervisor_->writable(s)) {
      supervisor_->ReportDegraded(s, statuses[s]);
    }
    if (!detail.empty()) detail += "; ";
    detail += "shard " + std::to_string(s) + ": " + statuses[s].message();
  }
  if (failed == 0) return util::Status::Ok();
  return util::Status::Internal(
      "checkpoint failed on " + std::to_string(failed) + " of " +
      std::to_string(succeeded + failed) + " shards (" + detail + "); " +
      std::to_string(succeeded) + " checkpointed successfully");
}

void ShardedModDatabase::NoteWriteOutcome(std::size_t s,
                                          const util::Status& status) {
  // Caller holds shard s's lock (durability/wal may otherwise be swapped
  // under us by the remediation loop).
  const Shard& shard = *shards_[s];
  if (shard.durability != nullptr) {
    const WalWriter* wal = shard.durability->wal();
    if (wal != nullptr && !wal->poison().ok()) {
      supervisor_->ReportFault(s, wal->poison());
      return;
    }
  }
  // A poisoned index refuses every later write, whatever status this one
  // returned (an erase returns OK regardless).
  if (util::Status poison = shard.db->object_index().storage_status();
      !poison.ok()) {
    supervisor_->ReportFault(s, poison);
    return;
  }
  // An Internal status without WAL poison (e.g. an in-memory-only shard's
  // write failing inside the store) is still a fault; the store's normal
  // rejections use NotFound/AlreadyExists/InvalidArgument and stay
  // invisible here.
  if (status.code() == util::StatusCode::kInternal) {
    supervisor_->ReportFault(s, status);
  }
}

util::Status ShardedModDatabase::RemediateShard(std::size_t s) {
  Shard& shard = *shards_[s];
  std::unique_lock lock(shard.mu);

  // Flavour 1 — poisoned WAL on an intact store. The poison aborted its
  // mutation before the memory commit, so memory is the source of truth:
  // rotate the writer to a fresh segment and checkpoint (the fresh epoch
  // covers the whole in-memory state). No swap, no repriming needed.
  if (shard.durability != nullptr) {
    const WalWriter* wal = shard.durability->wal();
    if (wal != nullptr && !wal->poison().ok()) {
      util::Status reopened = shard.durability->TryReopenWal();
      if (reopened.ok()) return reopened;
      // The reopen itself failed (the fault window may still cover file
      // opens); fall through to the full rebuild, and if that also fails
      // the supervisor re-arms the backoff.
    }
  }

  // Flavour 2 — full re-recovery: replay the shard's durable home into a
  // fresh store and swap it in. Covers startup bootstrap failures (no
  // durability attached at all) and anything flavour 1 could not fix.
  if (options_.durable_dir.empty()) {
    return util::Status::FailedPrecondition(
        "shard " + std::to_string(s) +
        " has no durable home to recover from");
  }
  auto fresh = std::make_unique<ModDatabase>(network_, ShardDbOptions(s));
  fresh->SetMetrics(&metrics_);
  // The old manager detaches its WAL in its destructor (touches the old
  // db), so it must die while the old db is still alive — before the swap.
  shard.durability.reset();
  auto durability =
      DurabilityManager::Open(fresh.get(), ShardDirOf(s), options_.durability);
  if (!durability.ok()) return durability.status();
  shard.db = std::move(fresh);
  shard.durability = std::move(*durability);
  shard.durability->ExportMetrics(&metrics_);

  if (subscriptions_ != nullptr) {
    // Attached only after Open so the recovery replay emits no events.
    shard.db->AttachSubscriptions(subscriptions_.get(), s);
    // Silent repriming of this shard's partition alone (the other shards
    // may be matching into theirs): forget the dead store's memberships,
    // then set each recovered object's relation without emitting. The
    // recovered store holds exactly the durably-committed attributes, so
    // the partition ends up in the state those commits produced and the
    // post-recovery event stream continues as if the fault never happened.
    subscriptions_->ResetTracking(s);
    shard.db->ForEachRecord([&](const MovingObjectRecord& rec) {
      subscriptions_->PrimeObject(rec.id, rec.attr, s);
    });
  }
  return util::Status::Ok();
}

std::string ShardedModDatabase::DumpMetrics() const {
  std::string out = metrics_.Dump();
  out += "gauge sharded.num_shards " + std::to_string(shards_.size()) + '\n';
  out += "gauge sharded.query_threads " + std::to_string(pool_.num_threads()) +
         '\n';
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock lock(shards_[s]->mu);
    out += "gauge sharded.shard" + std::to_string(s) + ".objects " +
           std::to_string(shards_[s]->db->num_objects()) + '\n';
  }
  return out;
}

}  // namespace modb::db
