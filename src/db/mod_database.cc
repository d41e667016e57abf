#include "db/mod_database.h"

#include <algorithm>
#include <cmath>

#include "core/bounds.h"
#include "core/refiner.h"
#include "core/uncertainty.h"
#include "db/subscription_engine.h"
#include "db/wal.h"
#include "index/linear_scan_index.h"
#include "index/route_band_index.h"
#include "index/timespace_index.h"

namespace modb::db {

namespace {

index::OPlaneOptions BaseOPlane(const ModDatabaseOptions& options) {
  index::OPlaneOptions oplane;
  oplane.horizon = options.oplane_horizon;
  oplane.slab_width = options.oplane_slab_width;
  return oplane;
}

std::unique_ptr<index::ObjectIndex> MakeIndex(
    const geo::RouteNetwork* network, const ModDatabaseOptions& options) {
  switch (options.index_kind) {
    case IndexKind::kTimeSpaceRTree: {
      index::TimeSpaceIndex::Options idx;
      idx.oplane = BaseOPlane(options);
      idx.rtree.storage = options.index_storage;
      return std::make_unique<index::TimeSpaceIndex>(network, idx);
    }
    case IndexKind::kLinearScan:
      return std::make_unique<index::LinearScanIndex>(network);
    case IndexKind::kRouteBand: {
      index::RouteBandIndex::Options idx;
      idx.oplane = BaseOPlane(options);
      idx.rtree.storage = options.index_storage;
      return std::make_unique<index::RouteBandIndex>(network, idx);
    }
  }
  return nullptr;
}

}  // namespace

ModDatabase::ModDatabase(const geo::RouteNetwork* network,
                         ModDatabaseOptions options)
    : network_(network),
      options_(options),
      index_(MakeIndex(network, options)) {}

void ModDatabase::SetMetrics(util::MetricsRegistry* registry,
                             const std::string& prefix) {
  metrics_registry_ = registry;
  metrics_prefix_ = prefix;
  if (registry == nullptr) {
    updates_applied_ = nullptr;
    inserts_ = nullptr;
    erases_ = nullptr;
    index_probes_ = nullptr;
    validate_rejects_ = nullptr;
    wal_fails_ = nullptr;
    apply_latency_ = nullptr;
    batch_size_hist_ = nullptr;
    index_->SetMetrics(nullptr, "");
    return;
  }
  updates_applied_ = registry->GetCounter(prefix + "updates_applied");
  inserts_ = registry->GetCounter(prefix + "inserts");
  erases_ = registry->GetCounter(prefix + "erases");
  index_probes_ = registry->GetCounter(prefix + "index_probes");
  validate_rejects_ = registry->GetCounter(prefix + "ingest.validate_reject");
  wal_fails_ = registry->GetCounter(prefix + "ingest.wal_fail");
  apply_latency_ = registry->GetLatency(prefix + "update.apply_latency_us");
  // Batch-size distribution: reuses the latency-histogram machinery with
  // *records per ApplyUpdateBatch call* as the recorded value (the "µs"
  // unit reads as a record count — the wal.group_commit_batch convention).
  batch_size_hist_ = registry->GetLatency(prefix + "ingest.batch_size");
  index_->SetMetrics(registry, prefix + "index.");
}

void ModDatabase::NotifyDeltas(std::span<const AttributeDelta> deltas) {
  subscriptions_->OnDeltaBatch(deltas);
}

util::Status ModDatabase::ValidateAttribute(
    const core::PositionAttribute& attr) const {
  const auto route = network_->FindRoute(attr.route);
  if (!route.ok()) return route.status();
  // Every position lookup on a route interpolates between two of its
  // points, and only asserts that they exist.
  if (!(*route)->Valid()) {
    return util::Status::InvalidArgument("route has fewer than two points");
  }
  // A NaN passes every range check below, and an infinite speed or time
  // reaches the index as an unbounded box: refuse both in every field.
  for (const double field :
       {attr.start_time, attr.start_route_distance, attr.start_position.x,
        attr.start_position.y, attr.speed, attr.update_cost, attr.max_speed,
        attr.fixed_threshold, attr.period, attr.step_threshold}) {
    if (!std::isfinite(field)) {
      return util::Status::InvalidArgument("non-finite attribute field");
    }
  }
  if (attr.speed < 0.0) {
    return util::Status::InvalidArgument("negative speed");
  }
  if (attr.start_route_distance < 0.0 ||
      attr.start_route_distance > (*route)->Length()) {
    return util::Status::InvalidArgument("start position off the route");
  }
  return util::Status::Ok();
}

util::Status ModDatabase::Insert(core::ObjectId id, std::string label,
                                 const core::PositionAttribute& attr) {
  // Stage 1: validate — no side effects before this point succeeds.
  if (records_.contains(id)) {
    return util::Status::AlreadyExists("object " + std::to_string(id));
  }
  if (util::Status s = ValidateAttribute(attr); !s.ok()) return s;
  // Stage 2: log.
  if (wal_ != nullptr) {
    if (util::Status s = wal_->AppendInsert(id, label, attr); !s.ok()) {
      if (wal_fails_ != nullptr) wal_fails_->Increment();
      return s;
    }
  }
  // Stage 3: mutate.
  MovingObjectRecord record;
  record.id = id;
  record.label = std::move(label);
  record.attr = attr;
  record.insert_time = attr.start_time;
  records_.emplace(id, std::move(record));
  // Stage 4: index-delta.
  if (!bulk_ingest_) {
    if (util::Status s = index_->Upsert(id, attr); !s.ok()) {
      // Unreachable after ValidateAttribute (the route exists), but the
      // index reports maintenance failures as errors now — roll the record
      // back so memory stays consistent and propagate.
      records_.erase(id);
      return s;
    }
  }
  if (!bulk_ingest_ && subscriptions_ != nullptr) {
    const AttributeDelta delta{0, id, nullptr, &attr};
    NotifyDeltas({&delta, 1});
  }
  if (inserts_ != nullptr) inserts_->Increment();
  return util::Status::Ok();
}

util::Status ModDatabase::BeginBulkIngest() {
  if (wal_ != nullptr) {
    return util::Status::FailedPrecondition(
        "bulk ingest with a WAL attached");
  }
  if (bulk_ingest_) {
    return util::Status::FailedPrecondition("bulk ingest already active");
  }
  bulk_ingest_ = true;
  return util::Status::Ok();
}

util::Status ModDatabase::FinishBulkIngest() {
  if (!bulk_ingest_) {
    return util::Status::FailedPrecondition("no bulk ingest active");
  }
  bulk_ingest_ = false;
  // Destroy the old index *before* constructing the new one: with
  // disk-backed index storage both would otherwise hold the same page
  // file at once, and the old instance's buffered writer could clobber
  // the fresh generation the new instance opens. (Bulk ingest runs during
  // recovery, before any reader can hold a `SharedIndex` handle, so the
  // reset here really does destroy the old instance; the mutex only keeps
  // the pointer swap itself atomic for `SharedIndex`.)
  {
    std::lock_guard lock(index_mu_);
    index_.reset();
    index_ = MakeIndex(network_, options_);
  }
  if (metrics_registry_ != nullptr) {
    index_->SetMetrics(metrics_registry_, metrics_prefix_ + "index.");
  }
  std::vector<index::IndexDelta> rows;
  rows.reserve(records_.size());
  for (const auto& [id, record] : records_) {
    rows.push_back(index::IndexDelta{id, &record.attr});
  }
  return index_->BulkUpsert(rows);
}

util::Status ModDatabase::BulkInsert(std::vector<BulkObject> objects) {
  // Validate everything up front so failure leaves the database unchanged.
  std::unordered_map<core::ObjectId, bool> batch_ids;
  for (const BulkObject& object : objects) {
    if (records_.contains(object.id) || batch_ids.contains(object.id)) {
      return util::Status::AlreadyExists("object " +
                                         std::to_string(object.id));
    }
    batch_ids.emplace(object.id, true);
    if (util::Status s = ValidateAttribute(object.attr); !s.ok()) return s;
  }
  if (wal_ != nullptr) {
    // One batched record for the whole call instead of a frame per row:
    // same kUpdateBatch framing the update path uses, so a bulk load of N
    // objects costs one CRC frame and one group-commit trigger check, not
    // N. Replay is prefix-exact: a torn batch frame drops the whole call,
    // never half of it (modulo the documented chunk split near the frame
    // sanity bound).
    std::vector<WalRecord> to_log;
    to_log.reserve(objects.size());
    for (const BulkObject& object : objects) {
      WalRecord record;
      record.type = WalRecordType::kInsert;
      record.id = object.id;
      record.label = object.label;
      record.attr = object.attr;
      to_log.push_back(std::move(record));
    }
    if (util::Status s = wal_->AppendBatch(to_log); !s.ok()) {
      if (wal_fails_ != nullptr) wal_fails_->Increment();
      return s;
    }
  }
  std::vector<std::pair<core::ObjectId, core::PositionAttribute>> for_index;
  for_index.reserve(objects.size());
  for (BulkObject& object : objects) {
    MovingObjectRecord record;
    record.id = object.id;
    record.label = std::move(object.label);
    record.attr = object.attr;
    record.insert_time = object.attr.start_time;
    for_index.emplace_back(object.id, object.attr);
    records_.emplace(object.id, std::move(record));
  }
  if (!bulk_ingest_) {
    if (util::Status s = index_->BulkUpsert(for_index); !s.ok()) {
      // Unreachable after up-front validation; keep the "unchanged on
      // failure" contract by rolling the batch's records back.
      for (const auto& [id, attr] : for_index) records_.erase(id);
      return s;
    }
  }
  if (!bulk_ingest_ && subscriptions_ != nullptr) {
    // One insert transition per row, in input order (`for_index` was
    // built in input order).
    std::vector<AttributeDelta> stream;
    stream.reserve(for_index.size());
    for (std::size_t i = 0; i < for_index.size(); ++i) {
      stream.push_back(
          AttributeDelta{i, for_index[i].first, nullptr, &for_index[i].second});
    }
    NotifyDeltas(stream);
  }
  if (inserts_ != nullptr) inserts_->Increment(for_index.size());
  return util::Status::Ok();
}

util::Status ModDatabase::ApplyUpdate(const core::PositionUpdate& update) {
  // One staged write path: a single update is a batch of one.
  return ApplyUpdateBatch({&update, 1}).first_error();
}

UpdateBatchResult ModDatabase::ApplyUpdateBatch(
    std::span<const core::PositionUpdate> updates) {
  UpdateBatchResult result;
  result.statuses.assign(updates.size(), util::Status::Ok());
  if (updates.empty()) return result;
  util::ScopedLatencyTimer timer(apply_latency_);
  if (batch_size_hist_ != nullptr) {
    // Records per call (the "µs" unit reads as a count, see SetMetrics).
    batch_size_hist_->RecordNanos(updates.size() * 1000);
  }

  // --- Stage 1: validate (no side effects). Each record is checked
  // against the batch-local evolving state — a second update to the same
  // object validates against the first one's merged result, not the stale
  // store — so acceptance matches the sequential path exactly.
  std::vector<core::PositionAttribute> merged(updates.size());
  std::vector<bool> accepted(updates.size(), false);
  // Object -> index into `merged` of its last accepted update; doubles as
  // the per-object registry behind the stage-4 dedup.
  std::unordered_map<core::ObjectId, std::size_t> last_accepted;
  std::size_t num_accepted = 0;
  std::size_t first_accepted = 0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const core::PositionUpdate& update = updates[i];
    const core::PositionAttribute* base = nullptr;
    if (const auto pending = last_accepted.find(update.object);
        pending != last_accepted.end()) {
      base = &merged[pending->second];
    } else if (const auto it = records_.find(update.object);
               it != records_.end()) {
      base = &it->second.attr;
    }
    if (base == nullptr) {
      result.statuses[i] =
          util::Status::NotFound("object " + std::to_string(update.object));
      continue;
    }
    if (update.time < base->start_time) {
      result.statuses[i] =
          util::Status::InvalidArgument("update time regresses");
      continue;
    }
    core::PositionAttribute attr = *base;  // keep policy parameters
    attr.start_time = update.time;
    attr.route = update.route;
    attr.start_route_distance = update.route_distance;
    attr.start_position = update.position;
    attr.direction = update.direction;
    attr.speed = update.speed;
    if (util::Status s = ValidateAttribute(attr); !s.ok()) {
      result.statuses[i] = std::move(s);
      continue;
    }
    merged[i] = attr;
    accepted[i] = true;
    if (num_accepted == 0) first_accepted = i;
    ++num_accepted;
    last_accepted[update.object] = i;
  }
  result.rejected = updates.size() - num_accepted;
  if (result.rejected > 0 && validate_rejects_ != nullptr) {
    validate_rejects_->Increment(result.rejected);
  }
  if (num_accepted == 0) return result;

  // --- Stage 2: log. One framed kUpdateBatch record holds every accepted
  // update (a batch of one logs the historical plain kUpdate framing). A
  // failed append fails all accepted records before any memory effect; the
  // writer poisons itself, so the log cannot trail the store.
  if (wal_ != nullptr) {
    util::Status logged;
    if (num_accepted == 1) {
      logged = wal_->AppendUpdate(updates[first_accepted]);
    } else {
      std::vector<core::PositionUpdate> to_log;
      to_log.reserve(num_accepted);
      for (std::size_t i = 0; i < updates.size(); ++i) {
        if (accepted[i]) to_log.push_back(updates[i]);
      }
      logged = wal_->AppendUpdateBatch(to_log);
    }
    if (!logged.ok()) {
      if (wal_fails_ != nullptr) wal_fails_->Increment();
      for (std::size_t i = 0; i < updates.size(); ++i) {
        if (accepted[i]) result.statuses[i] = logged;
      }
      return result;
    }
  }

  // --- Stage 3: mutate. Commit the fleet map in batch order; every
  // superseded version lands in the trajectory history exactly as the
  // sequential path would. Each touched object's pre-batch state is saved
  // so the index-delta stage can roll the whole batch back — unreachable
  // with the in-tree indexes (stage 1 validated every row and they
  // validate again before touching a tree), but a handled error, not a
  // torn store.
  struct Saved {
    core::ObjectId id = core::kInvalidObjectId;
    core::PositionAttribute attr;
    std::uint64_t update_count = 0;
    std::size_t past_size = 0;
    // Trajectory entries the version cap evicted during this batch, oldest
    // first (empty in the common path; needed to restore exactly).
    std::vector<core::PositionAttribute> evicted;
  };
  std::vector<Saved> saved;
  saved.reserve(last_accepted.size());
  std::unordered_map<core::ObjectId, std::size_t> saved_of;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (!accepted[i]) continue;
    MovingObjectRecord& record = records_.find(updates[i].object)->second;
    const auto [sit, first_touch] =
        saved_of.try_emplace(updates[i].object, saved.size());
    if (first_touch) {
      Saved sv;
      sv.id = updates[i].object;
      sv.attr = record.attr;
      sv.update_count = record.update_count;
      sv.past_size = record.past.size();
      saved.push_back(std::move(sv));
    }
    if (options_.keep_trajectory) {
      record.past.push_back(record.attr);
      const std::size_t cap = options_.max_trajectory_versions;
      if (cap > 0 && record.past.size() > cap) {
        const auto cut =
            record.past.end() - static_cast<std::ptrdiff_t>(cap);
        Saved& sv = saved[sit->second];
        sv.evicted.insert(sv.evicted.end(), record.past.begin(), cut);
        record.past.erase(record.past.begin(), cut);
      }
    }
    record.attr = merged[i];
    ++record.update_count;
  }

  // --- Stage 4: index-delta. One ApplyDeltaBatch call with each touched
  // object's *final* merged attribute, in first-touch order (deterministic
  // input; intermediate models would be dead work — the index only ever
  // serves the current one, and queries refine candidates exactly).
  if (!bulk_ingest_) {
    std::vector<index::IndexDelta> deltas;
    deltas.reserve(saved.size());
    for (const Saved& sv : saved) {
      deltas.push_back(index::IndexDelta{
          sv.id, &merged[last_accepted.find(sv.id)->second]});
    }
    if (util::Status s = index_->ApplyDeltaBatch(deltas); !s.ok()) {
      // Restore every touched record. The concatenation evicted+past is
      // the full uncapped history in order, so its first past_size entries
      // are exactly the pre-batch trajectory.
      for (Saved& sv : saved) {
        MovingObjectRecord& record = records_.find(sv.id)->second;
        record.attr = std::move(sv.attr);
        record.update_count = sv.update_count;
        if (record.past.size() != sv.past_size || !sv.evicted.empty()) {
          std::vector<core::PositionAttribute> past = std::move(sv.evicted);
          past.insert(past.end(),
                      std::make_move_iterator(record.past.begin()),
                      std::make_move_iterator(record.past.end()));
          past.resize(sv.past_size);
          record.past = std::move(past);
        }
      }
      for (std::size_t i = 0; i < updates.size(); ++i) {
        if (accepted[i]) result.statuses[i] = s;
      }
      return result;
    }
  }

  // Success bookkeeping, deferred to here so the rollback above never has
  // to unwind it.
  if (!bulk_ingest_ && subscriptions_ != nullptr) {
    // Per-record transition stream, chained through the batch-local
    // intermediate attributes: record i's `before` is the previous
    // accepted merged attribute of the same object (or the saved
    // pre-batch attribute on first touch), NOT the stage-4 deduped final
    // — so a batch notifies exactly what sequential ingest would, and a
    // superseded mid-batch excursion through a region still reports its
    // enter/leave pair instead of a spurious or missing transition.
    std::vector<AttributeDelta> stream;
    stream.reserve(num_accepted);
    std::unordered_map<core::ObjectId, const core::PositionAttribute*> prev;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (!accepted[i]) continue;
      const auto [pit, first_touch] =
          prev.try_emplace(updates[i].object, nullptr);
      const core::PositionAttribute* before =
          first_touch ? &saved[saved_of.find(updates[i].object)->second].attr
                      : pit->second;
      stream.push_back(AttributeDelta{i, updates[i].object, before, &merged[i]});
      pit->second = &merged[i];
    }
    NotifyDeltas(stream);
  }
  total_updates_ += num_accepted;
  if (updates_applied_ != nullptr) updates_applied_->Increment(num_accepted);
  result.applied = num_accepted;
  return result;
}

util::Status ModDatabase::RestoreTrajectory(
    core::ObjectId id, std::vector<core::PositionAttribute> past) {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return util::Status::NotFound("object " + std::to_string(id));
  }
  for (std::size_t i = 0; i < past.size(); ++i) {
    if (util::Status s = ValidateAttribute(past[i]); !s.ok()) return s;
    const core::Time next_start = i + 1 < past.size()
                                      ? past[i + 1].start_time
                                      : it->second.attr.start_time;
    if (past[i].start_time > next_start) {
      return util::Status::InvalidArgument("trajectory versions unordered");
    }
  }
  it->second.past = std::move(past);
  return util::Status::Ok();
}

util::Status ModDatabase::Erase(core::ObjectId id) {
  // Stage 1: validate.
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return util::Status::NotFound("object " + std::to_string(id));
  }
  // Stage 2: log.
  if (wal_ != nullptr) {
    if (util::Status s = wal_->AppendErase(id); !s.ok()) {
      if (wal_fails_ != nullptr) wal_fails_->Increment();
      return s;
    }
  }
  // Stage 3: mutate; stage 4: index-delta.
  const core::PositionAttribute before = it->second.attr;
  records_.erase(it);
  if (!bulk_ingest_) index_->Remove(id);
  if (!bulk_ingest_ && subscriptions_ != nullptr) {
    const AttributeDelta delta{0, id, &before, nullptr};
    NotifyDeltas({&delta, 1});
  }
  if (erases_ != nullptr) erases_->Increment();
  return util::Status::Ok();
}

namespace {

// The attribute version that was valid at time `t`: the current one for
// t >= its start, else the newest past version starting at or before `t`
// (the oldest version for times before the object existed).
const core::PositionAttribute& AttributeValidAt(
    const MovingObjectRecord& record, core::Time t) {
  if (t >= record.attr.start_time || record.past.empty()) return record.attr;
  const auto it = std::upper_bound(
      record.past.begin(), record.past.end(), t,
      [](core::Time time, const core::PositionAttribute& attr) {
        return time < attr.start_time;
      });
  if (it == record.past.begin()) return record.past.front();
  return *(it - 1);
}

}  // namespace

util::Result<PositionAnswer> ModDatabase::QueryPosition(core::ObjectId id,
                                                        core::Time t) const {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return util::Status::NotFound("object " + std::to_string(id));
  }
  const core::PositionAttribute& attr = AttributeValidAt(it->second, t);
  const auto route = network_->FindRoute(attr.route);
  if (!route.ok()) return route.status();

  PositionAnswer answer;
  answer.id = id;
  answer.query_time = t;
  answer.route = attr.route;
  answer.route_distance =
      attr.ClampedDatabaseRouteDistanceAt(t, (*route)->Length());
  answer.position = (*route)->PointAt(answer.route_distance);
  const core::Duration elapsed = std::max(0.0, t - attr.start_time);
  answer.slow_bound = core::SlowDeviationBound(attr, elapsed);
  answer.fast_bound = core::FastDeviationBound(attr, elapsed);
  answer.deviation_bound = core::DeviationBound(attr, elapsed);
  answer.uncertainty = core::ComputeUncertainty(attr, **route, t);
  return answer;
}

RangeAnswer ModDatabase::QueryRange(const geo::Polygon& region,
                                    core::Time t) const {
  const std::vector<core::ObjectId> candidates =
      index_->Candidates(region, t);
  CountIndexProbe();
  return RefineRange(region, t, candidates);
}

RangeAnswer ModDatabase::RefineRange(
    const geo::Polygon& region, core::Time t,
    const std::vector<core::ObjectId>& candidates) const {
  RangeAnswer answer;
  answer.query_time = t;
  answer.candidates_examined = candidates.size();
  core::Refiner refiner;
  for (core::ObjectId id : candidates) {
    const auto it = records_.find(id);
    if (it == records_.end()) continue;  // stale index entry
    const core::PositionAttribute& attr = it->second.attr;
    // The model covers no time before its start; no index returns it there.
    if (t < attr.start_time) continue;
    const auto route = network_->FindRoute(attr.route);
    if (!route.ok()) continue;
    const core::UncertaintyInterval iv =
        core::ComputeUncertainty(attr, **route, t);
    double probability = 0.0;
    switch (refiner.Classify(region, (*route)->shape(), iv, &probability)) {
      case core::RegionRelation::kMustBeIn:
        answer.must.push_back(id);
        break;
      case core::RegionRelation::kMayBeIn:
        answer.may.push_back(id);
        answer.may_probability.push_back(probability);
        break;
      case core::RegionRelation::kOutside:
        break;
    }
  }
  std::sort(answer.must.begin(), answer.must.end());
  // Sort `may` keeping its probability column aligned.
  std::vector<std::size_t> order(answer.may.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return answer.may[a] < answer.may[b];
  });
  std::vector<core::ObjectId> sorted_may;
  std::vector<double> sorted_prob;
  sorted_may.reserve(order.size());
  sorted_prob.reserve(order.size());
  for (std::size_t i : order) {
    sorted_may.push_back(answer.may[i]);
    sorted_prob.push_back(answer.may_probability[i]);
  }
  answer.may = std::move(sorted_may);
  answer.may_probability = std::move(sorted_prob);
  return answer;
}

NearestAnswer ModDatabase::QueryNearest(const geo::Point2& point,
                                        std::size_t k, core::Time t) const {
  NearestAnswer answer;
  QueryNearestSplit(
      point, k, t,
      [&](const geo::Polygon& probe) {
        CountIndexProbe();
        return index_->Candidates(probe, t);
      },
      [](const std::function<void()>& fn) {
        fn();
        return true;
      },
      &answer);
  return answer;
}

bool ModDatabase::QueryNearestSplit(
    const geo::Point2& point, std::size_t k, core::Time t,
    const std::function<std::vector<core::ObjectId>(const geo::Polygon&)>&
        probe,
    const std::function<bool(const std::function<void()>&)>& locked,
    NearestAnswer* out) const {
  NearestAnswer answer;
  answer.query_time = t;
  bool have_records = false;
  if (!locked([&] { have_records = !records_.empty(); })) return false;
  if (k == 0 || !have_records) {
    *out = std::move(answer);
    return true;
  }

  // Expanding probes: grow a square around the query point until it yields
  // at least k *surviving* candidates (or covers the whole network), then
  // widen once more to the k-th database-position distance so no closer
  // object on the fringe is missed. Survivors are counted after refinement
  // so that candidates dropped there (stale index entries, unknown routes)
  // cannot leave the answer short of k while closer objects sit outside
  // the probe. `candidates_examined` accumulates over every probe: it is
  // the total refinement work done, not the last probe's yield.
  const geo::Box2 world = network_->BoundingBox();
  const double world_span =
      std::max(world.Width(), world.Height()) + 1.0;
  double radius = std::max(world_span / 64.0, 1e-6);
  // A square of half-width `cover` holds the whole network box, also from
  // a point outside it: the Chebyshev distance to its farthest corner + 1.
  const double cover =
      std::max({point.x - world.min.x, world.max.x - point.x,
                point.y - world.min.y, world.max.y - point.y}) +
      1.0;
  std::vector<core::ObjectId> candidates;

  core::Refiner refiner;
  auto build_items = [&](const std::vector<core::ObjectId>& ids) {
    std::vector<NearestAnswer::Item> items;
    items.reserve(ids.size());
    for (core::ObjectId id : ids) {
      const auto it = records_.find(id);
      if (it == records_.end()) continue;
      const core::PositionAttribute& attr = it->second.attr;
      if (t < attr.start_time) continue;  // as in RefineRange
      const auto route = network_->FindRoute(attr.route);
      if (!route.ok()) continue;
      NearestAnswer::Item item;
      item.id = id;
      const double db_s =
          attr.ClampedDatabaseRouteDistanceAt(t, (*route)->Length());
      item.db_distance = geo::Distance(point, (*route)->PointAt(db_s));
      const core::DistanceBracket possible = refiner.Distances(
          point, (*route)->shape(), core::ComputeUncertainty(attr, **route, t));
      item.min_possible_distance = possible.min;
      item.max_possible_distance = possible.max;
      items.push_back(item);
    }
    std::sort(items.begin(), items.end(), NearestAnswer::ItemOrder);
    return items;
  };

  std::vector<NearestAnswer::Item> items;
  for (;;) {
    const geo::Polygon probe_region =
        geo::Polygon::CenteredRectangle(point, radius, radius);
    candidates = probe(probe_region);
    if (!locked([&] {
          answer.candidates_examined += candidates.size();
          items = build_items(candidates);
        })) {
      return false;
    }
    if (items.size() >= k || radius >= cover) break;
    radius *= 2.0;
  }

  if (!items.empty() && radius < cover) {
    const double kth =
        items[std::min(k, items.size()) - 1].db_distance;
    if (kth > radius) {
      const geo::Polygon wide =
          geo::Polygon::CenteredRectangle(point, kth, kth);
      candidates = probe(wide);
      if (!locked([&] {
            answer.candidates_examined += candidates.size();
            items = build_items(candidates);
          })) {
        return false;
      }
    }
  }
  if (items.size() > k) items.resize(k);
  answer.items = std::move(items);
  *out = std::move(answer);
  return true;
}

IntervalRangeAnswer ModDatabase::QueryRangeInterval(
    const geo::Polygon& region, core::Time t1, core::Time t2,
    core::Duration sample_step) const {
  if (t1 > t2) std::swap(t1, t2);
  const std::vector<core::ObjectId> candidates =
      index_->CandidatesInWindow(region, t1, t2);
  CountIndexProbe();
  return RefineRangeInterval(region, t1, t2, sample_step, candidates);
}

IntervalRangeAnswer ModDatabase::RefineRangeInterval(
    const geo::Polygon& region, core::Time t1, core::Time t2,
    core::Duration sample_step,
    const std::vector<core::ObjectId>& candidates) const {
  IntervalRangeAnswer answer;
  if (t1 > t2) std::swap(t1, t2);
  answer.window_start = t1;
  answer.window_end = t2;
  answer.candidates_examined = candidates.size();

  core::Refiner refiner;
  for (core::ObjectId id : candidates) {
    const auto it = records_.find(id);
    if (it == records_.end()) continue;
    const core::PositionAttribute& attr = it->second.attr;
    const auto route = network_->FindRoute(attr.route);
    if (!route.ok()) continue;
    // Only the part of the window the model covers, from its start to the
    // index's horizon end, is refined — the part every index kind answers.
    const core::Time lo = std::max(t1, attr.start_time);
    const core::Time hi = std::min(t2, index_->CoverageEnd(attr));
    if (lo > hi) continue;
    // A step that overshoots the window still samples both edges.
    const double step =
        std::max(sample_step > 0.0 ? sample_step : hi - lo, 1e-9);
    switch (refiner.ClassifyDuring(region, attr, **route, lo, hi, step)) {
      case core::RegionRelation::kMustBeIn:
        answer.must_at_some_time.push_back(id);
        answer.may.push_back(id);
        break;
      case core::RegionRelation::kMayBeIn:
        answer.may.push_back(id);
        break;
      case core::RegionRelation::kOutside:
        break;
    }
  }
  std::sort(answer.may.begin(), answer.may.end());
  std::sort(answer.must_at_some_time.begin(), answer.must_at_some_time.end());
  return answer;
}

util::Result<const MovingObjectRecord*> ModDatabase::Get(
    core::ObjectId id) const {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return util::Status::NotFound("object " + std::to_string(id));
  }
  return &it->second;
}

void ModDatabase::ForEachRecord(
    const std::function<void(const MovingObjectRecord&)>& fn) const {
  for (const auto& [id, record] : records_) fn(record);
}

}  // namespace modb::db
