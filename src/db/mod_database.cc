#include "db/mod_database.h"

#include <algorithm>
#include <cassert>
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

void ModDatabase::AttachSubscriptions(SubscriptionEngine* engine,
                                      std::size_t partition) {
  assert(engine == nullptr || partition < engine->num_partitions());
  subscriptions_ = engine;
  subscription_partition_ = partition;
  // Written only when it changes: a shard re-attaching to the sharded
  // store's engine, which other shards may be reading, has it already.
  if (engine != nullptr && engine->horizon_ != options_.oplane_horizon) {
    engine->horizon_ = options_.oplane_horizon;
  }
}

void ModDatabase::NotifyDeltas(std::span<const AttributeDelta> deltas) {
  subscriptions_->OnDeltaBatch(deltas, subscription_partition_);
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
  // A negative cost, maximum speed, threshold or period makes a deviation
  // bound negative, which turns the uncertainty interval inside out: the
  // route-band index and the subscription join, which reach only as far as
  // the bounds, would then miss objects the model classifies MAY.
  for (const double field : {attr.update_cost, attr.max_speed,
                             attr.fixed_threshold, attr.period,
                             attr.step_threshold}) {
    if (field < 0.0) {
      return util::Status::InvalidArgument("negative policy parameter");
    }
  }
  if (attr.start_route_distance < 0.0 ||
      attr.start_route_distance > (*route)->Length()) {
    return util::Status::InvalidArgument("start position off the route");
  }
  return util::Status::Ok();
}

util::Status ModDatabase::Insert(core::ObjectId id, std::string label,
                                 const core::PositionAttribute& attr) {
  // Validate — no side effects before this point succeeds.
  if (records_.contains(id)) {
    return util::Status::AlreadyExists("object " + std::to_string(id));
  }
  if (util::Status s = ValidateAttribute(attr); !s.ok()) return s;
  // Log.
  if (wal_ != nullptr) {
    if (util::Status s = wal_->AppendInsert(id, label, attr); !s.ok()) {
      if (wal_fails_ != nullptr) wal_fails_->Increment();
      return s;
    }
  }
  if (!bulk_ingest_) {
    // Index delta: the last stage that can fail, so a failure leaves the
    // record map as it was.
    if (util::Status s =
            index_->ApplyDeltaBatch({index::IndexDelta{id, &attr}});
        !s.ok()) {
      return s;
    }
    // Notify.
    if (subscriptions_ != nullptr) {
      const AttributeDelta delta{0, id, nullptr, &attr};
      NotifyDeltas({&delta, 1});
    }
  }
  // Commit.
  MovingObjectRecord record;
  record.id = id;
  record.label = std::move(label);
  record.attr = attr;
  record.insert_time = attr.start_time;
  records_.emplace(id, std::move(record));
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
  // Destroy the old index *before* constructing the new one, so the two
  // never hold a buffer pool (and, disk-backed, a page file) at the same
  // time.
  index_.reset();
  index_ = MakeIndex(network_, options_);
  if (metrics_registry_ != nullptr) {
    index_->SetMetrics(metrics_registry_, metrics_prefix_ + "index.");
  }
  return index_->BulkUpsert(RecordRows(0));
}

std::vector<index::IndexDelta> ModDatabase::RecordRows(
    std::size_t extra) const {
  std::vector<index::IndexDelta> rows;
  rows.reserve(records_.size() + extra);
  for (const auto& [id, record] : records_) {
    rows.push_back(index::IndexDelta{id, &record.attr});
  }
  return rows;
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
    // Log one batched record for the whole call instead of a frame per row:
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
  if (!bulk_ingest_) {
    // Index delta: a packed build of the stored records plus the new rows.
    // The last stage that can fail, so a failure leaves the record map as
    // it was.
    std::vector<index::IndexDelta> rows = RecordRows(objects.size());
    for (const BulkObject& object : objects) {
      rows.push_back(index::IndexDelta{object.id, &object.attr});
    }
    if (util::Status s = index_->BulkUpsert(rows); !s.ok()) return s;
    // Notify: one insert transition per row, in input order.
    if (subscriptions_ != nullptr) {
      std::vector<AttributeDelta> stream;
      stream.reserve(objects.size());
      for (std::size_t i = 0; i < objects.size(); ++i) {
        stream.push_back(
            AttributeDelta{i, objects[i].id, nullptr, &objects[i].attr});
      }
      NotifyDeltas(stream);
    }
  }
  // Commit.
  for (BulkObject& object : objects) {
    MovingObjectRecord record;
    record.id = object.id;
    record.label = std::move(object.label);
    record.attr = object.attr;
    record.insert_time = object.attr.start_time;
    records_.emplace(object.id, std::move(record));
  }
  if (inserts_ != nullptr) inserts_->Increment(objects.size());
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
  // One index row per touched object, in first-touch order: its latest
  // accepted merged attribute and the stored model it replaces. The
  // record map is written only by the commit stage, so `before` points
  // into it until then.
  std::vector<index::IndexDelta> deltas;
  // Object -> its row in `deltas`.
  std::unordered_map<core::ObjectId, std::size_t> row_of;
  std::size_t num_accepted = 0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const core::PositionUpdate& update = updates[i];
    const core::PositionAttribute* base = nullptr;
    const auto pending = row_of.find(update.object);
    if (pending != row_of.end()) {
      base = deltas[pending->second].attr;
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
    ++num_accepted;
    if (pending != row_of.end()) {
      deltas[pending->second].attr = &merged[i];
    } else {
      // First touch: `base` is the stored record's attribute.
      row_of.emplace(update.object, deltas.size());
      deltas.push_back(index::IndexDelta{update.object, &merged[i], base});
    }
  }
  result.rejected = updates.size() - num_accepted;
  if (result.rejected > 0 && validate_rejects_ != nullptr) {
    validate_rejects_->Increment(result.rejected);
  }
  if (num_accepted == 0) return result;

  // Fails every accepted record with `s`; the store is unchanged.
  const auto fail_accepted = [&](const util::Status& s) {
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (accepted[i]) result.statuses[i] = s;
    }
  };

  // --- Stage 2: log. One framed kUpdateBatch record holds every accepted
  // update (a batch of one logs the historical plain kUpdate framing). A
  // failed append fails all accepted records before any memory effect; the
  // writer poisons itself, so the log cannot trail the store.
  if (wal_ != nullptr) {
    std::vector<core::PositionUpdate> to_log;
    to_log.reserve(num_accepted);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (accepted[i]) to_log.push_back(updates[i]);
    }
    if (util::Status s = wal_->AppendUpdateBatch(to_log); !s.ok()) {
      if (wal_fails_ != nullptr) wal_fails_->Increment();
      fail_accepted(s);
      return result;
    }
  }

  if (!bulk_ingest_) {
    // --- Stage 3: index delta. One ApplyDeltaBatch call with each touched
    // object's *final* merged attribute, in first-touch order
    // (intermediate models would be dead work — the index only ever serves
    // the current one, and queries refine candidates exactly). It is the
    // last stage that can fail, and nothing in memory has changed yet.
    if (util::Status s = index_->ApplyDeltaBatch(deltas); !s.ok()) {
      fail_accepted(s);
      return result;
    }

    // --- Stage 4: notify. Per-record transition stream, chained through
    // the batch-local intermediate attributes: record i's `before` is the
    // previous accepted merged attribute of the same object (or its stored
    // attribute on first touch), NOT the stage-3 deduped final — so a
    // batch notifies exactly what sequential ingest would, and a
    // superseded mid-batch excursion through a region still reports its
    // enter/leave pair instead of a spurious or missing transition.
    if (subscriptions_ != nullptr) {
      std::vector<const core::PositionAttribute*> prev(deltas.size());
      for (std::size_t k = 0; k < deltas.size(); ++k) {
        prev[k] = deltas[k].before;
      }
      std::vector<AttributeDelta> stream;
      stream.reserve(num_accepted);
      for (std::size_t i = 0; i < updates.size(); ++i) {
        if (!accepted[i]) continue;
        const core::PositionAttribute*& before =
            prev[row_of.find(updates[i].object)->second];
        stream.push_back(
            AttributeDelta{i, updates[i].object, before, &merged[i]});
        before = &merged[i];
      }
      NotifyDeltas(stream);
    }
  }

  // --- Stage 5: commit. The record map takes the batch in batch order;
  // every superseded version lands in the trajectory history exactly as
  // the sequential path would.
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (!accepted[i]) continue;
    MovingObjectRecord& record = records_.find(updates[i].object)->second;
    if (options_.keep_trajectory) {
      record.past.push_back(record.attr);
      const std::size_t cap = options_.max_trajectory_versions;
      if (cap > 0 && record.past.size() > cap) {
        record.past.erase(record.past.begin(),
                          record.past.end() - static_cast<std::ptrdiff_t>(cap));
      }
    }
    record.attr = merged[i];
    ++record.update_count;
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
  // Validate.
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return util::Status::NotFound("object " + std::to_string(id));
  }
  // Log.
  if (wal_ != nullptr) {
    if (util::Status s = wal_->AppendErase(id); !s.ok()) {
      if (wal_fails_ != nullptr) wal_fails_->Increment();
      return s;
    }
  }
  if (!bulk_ingest_) {
    const core::PositionAttribute& stored = it->second.attr;
    // Index delta. Its answer is not checked: an entry the index kept is a
    // stale candidate, which refinement drops once the record is gone.
    (void)index_->ApplyDeltaBatch({index::IndexDelta{id, nullptr, &stored}});
    // Notify.
    if (subscriptions_ != nullptr) {
      const AttributeDelta delta{0, id, &stored, nullptr};
      NotifyDeltas({&delta, 1});
    }
  }
  // Commit.
  records_.erase(it);
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
  answer.SortById();
  return answer;
}

NearestAnswer SearchNearest(const geo::Box2& network_box,
                            const geo::Point2& point, std::size_t k,
                            const NearestRound& round) {
  NearestAnswer answer;
  if (k == 0) return answer;
  const double span =
      std::max(network_box.Width(), network_box.Height()) + 1.0;
  double half = std::max(span / 64.0, 1e-6);
  // A square of half-width `cover` holds the whole network box, also from
  // a point outside it: the Chebyshev distance to its farthest corner + 1.
  const double cover =
      std::max({point.x - network_box.min.x, network_box.max.x - point.x,
                point.y - network_box.min.y, network_box.max.y - point.y}) +
      1.0;
  // Set once a round widened to the k-th distance. Alone, the store that
  // widened finds its k items within the new square; a later round means
  // writes moved them between rounds, and growing at least twofold bounds
  // how long such races can keep the search going.
  bool widened = false;
  for (;;) {
    NearestAnswer found;
    const bool any_objects = round(half, &found);
    answer.candidates_examined += found.candidates_examined;
    answer.items = std::move(found.items);
    // Written so that a point that is not finite (cover is then NaN) ends
    // the search too.
    if (!any_objects || !(half < cover)) break;
    if (answer.items.size() < k) {
      half *= 2.0;
      continue;
    }
    // Survivors are counted after refinement, so candidates dropped there
    // (stale index entries, models that start after the query) cannot end
    // the search short of k while closer objects sit outside the square.
    const double kth = answer.items[k - 1].db_distance;
    if (kth <= half) break;
    half = widened ? std::max(2.0 * half, kth) : kth;
    widened = true;
  }
  return answer;
}

NearestAnswer ModDatabase::QueryNearest(const geo::Point2& point,
                                        std::size_t k, core::Time t) const {
  NearestAnswer answer =
      SearchNearest(network_->BoundingBox(), point, k,
                    [&](double half, NearestAnswer* found) {
                      if (records_.empty()) return false;
                      *found = NearestInSquare(point, half, k, t);
                      return true;
                    });
  answer.query_time = t;
  return answer;
}

NearestAnswer ModDatabase::NearestInSquare(const geo::Point2& point,
                                           double half, std::size_t k,
                                           core::Time t) const {
  const std::vector<core::ObjectId> ids = index_->Candidates(
      geo::Polygon::CenteredRectangle(point, half, half), t);
  CountIndexProbe();
  NearestAnswer answer;
  answer.query_time = t;
  answer.candidates_examined = ids.size();
  std::vector<NearestAnswer::Item>& items = answer.items;
  items.reserve(ids.size());
  core::Refiner refiner;
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
  // `ItemOrder` is total over one store's ids, so the k best are the same
  // whichever sort finds them.
  const std::size_t keep = std::min(k, items.size());
  std::partial_sort(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(keep),
                    items.end(), NearestAnswer::ItemOrder);
  items.resize(keep);
  return answer;
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
  answer.SortById();
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
