// Seeded model-based differential harness; DESIGN §16 lists the identities
// it checks. MUST/MAY answers and deviation bounds are a pure function of
// each object's motion model, so every store shape must answer and notify
// bit for bit alike. One generated operation sequence per seed drives a
// reference store (an unsharded, resident, WAL-less ModDatabase with a
// naive-rescan engine, writing one record at a time) and a group of
// configurations side by side, and compares every status, every answer in
// hexfloat, every event stream and, after each round, the record sets. A
// configuration with a `peer` (same index kind, write shape and shard
// count) must also do the same work: the candidates each query examined,
// the event ordinals and each restart's recovery report. On a mismatch the
// failure names the seed, the configuration and the shortest failing
// prefix of the sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "db/mod_database.h"
#include "db/sharded_database.h"
#include "db/subscription_engine.h"
#include "geo/point.h"
#include "geo/polygon.h"
#include "geo/route_network.h"
#include "index/route_band_index.h"
#include "util/rng.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

// ---- Operations ----

namespace op {
struct AddRoute { std::uint64_t seed; geo::Point2 start; };
struct Insert { core::ObjectId id; core::PositionAttribute attr; };
struct BulkInsert { std::vector<ModDatabase::BulkObject> rows; };
struct UpdateBatch { std::vector<core::PositionUpdate> updates; };
struct Erase { core::ObjectId id; };
struct Subscribe { SubscriptionId id; SubscriptionSpec spec; };
struct Unsubscribe { SubscriptionId id; };
struct Checkpoint {};
/// Durable stores close and reopen without unsubscribing (registrations
/// are not persisted); every other store unsubscribes `subs`. Then every
/// store subscribes `subs` again, so all start from untracked relations.
struct Restart {
  std::vector<std::pair<SubscriptionId, SubscriptionSpec>> subs;
};
struct Position { core::ObjectId id; core::Time t; };
struct Range { geo::Polygon region; core::Time t; };
struct Interval { geo::Polygon region; core::Time t1, t2; };
struct Nearest { geo::Point2 point; std::size_t k; core::Time t; };
struct Check {};  // compares the record sets and index health
}  // namespace op

using Op = std::variant<op::AddRoute, op::Insert, op::BulkInsert,
                        op::UpdateBatch, op::Erase, op::Subscribe,
                        op::Unsubscribe, op::Checkpoint, op::Restart,
                        op::Position, op::Range, op::Interval, op::Nearest,
                        op::Check>;

constexpr const char* kOpNames[] = {
    "add route", "insert",      "bulk insert", "update batch", "erase",
    "subscribe", "unsubscribe", "checkpoint",  "restart",      "position",
    "range",     "interval",    "nearest",     "check records"};
static_assert(std::size(kOpNames) == std::variant_size_v<Op>);

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

// ---- Configurations ----

struct Config {
  const char* name = "";
  IndexKind kind = IndexKind::kRouteBand;
  std::size_t shards = 0;         // 0: a ModDatabase
  std::size_t query_threads = 0;  // sharded: fan-out helpers, 0 = inline
  bool batched = true;            // update batches in one call
  bool paged = false;             // disk pages, pool smaller than the index
  bool durable = false;           // sharded: WAL, checkpoints, restarts
  bool naive = false;             // ModDatabase: naive-rescan engine
  const char* peer = nullptr;     // an earlier config doing the same work
};

struct Group {
  core::Duration horizon = 0.0;
  double slab_width = 0.0;
  Config reference;
  std::vector<Config> configs;
};

constexpr IndexKind kScan = IndexKind::kLinearScan;
constexpr IndexKind kSlabs = IndexKind::kTimeSpaceRTree;
constexpr IndexKind kBands = IndexKind::kRouteBand;

/// Horizon longer than the run: the scan and both R*-tree kinds answer
/// alike. Slab boxes 10 wide keep the time-space index small.
const Group kUnsharded{
    100.0, 10.0, {"reference", kScan, 0, 0, false, false, false, true},
    {{"slabs", kSlabs},
     {"bands", kBands},
     {"bands-per-record", kBands, 0, 0, false},
     {"scan-join", kScan},
     {"slabs-paged", kSlabs, 0, 0, true, true, false, false, "slabs"},
     {"bands-paged-per-record", kBands, 0, 0, false, true}}};

const Group kSharded{
    100.0, 10.0, {"reference", kScan, 0, 0, false, false, false, true},
    {{"bands", kBands},
     {"1-shard", kBands, 1, 0, true, false, false, false, "bands"},
     {"2-shard-per-record", kBands, 2, 0, false},
     {"4-shard-slabs", kSlabs, 4, 0},
     {"2-shard-pooled-per-record", kBands, 2, 1, false},
     {"4-shard-pooled", kBands, 4, 3},
     {"4-shard-durable", kBands, 4, 0, true, false, true},
     {"4-shard-pooled-durable", kBands, 4, 3, true, false, true, false,
      "4-shard-durable"},
     {"4-shard-pooled-paged-durable", kBands, 4, 3, true, true, true}}};

/// A short horizon, so the horizon cut shows: the route-band and paged
/// configurations against a time-space reference.
const Group kShortHorizon{
    12.0, 4.0, {"reference", kSlabs, 0, 0, false, false, false, true},
    {{"bands", kBands},
     {"bands-paged", kBands, 0, 0, true, true, false, false, "bands"},
     {"slabs-paged-per-record", kSlabs, 0, 0, false, true},
     {"4-shard-bands-paged-durable", kBands, 4, 0, true, true, true}}};

// ---- The generator ----

/// A 4 x 4 street grid spanning 90 units, winding routes inside it, and a
/// two-lap loop. Everything stays inside the grid's box, so a nearest
/// query from outside it needs the probe to grow past the box's width.
void BuildNetwork(std::uint64_t seed, geo::RouteNetwork* network) {
  network->AddGridNetwork(4, 4, 30.0);
  util::Rng rng(seed * 7919 + 17);
  for (int i = 0; i < 3; ++i) {
    network->AddRandomWindingRoute(
        rng, {rng.Uniform(30.0, 60.0), rng.Uniform(30.0, 60.0)}, 10, 3.0, 0.6);
  }
  network->AddLoopRoute(15.0, 15.0, 75.0, 75.0, 2);
}

void AddWindingRoute(const op::AddRoute& o, geo::RouteNetwork* network) {
  util::Rng rng(o.seed);
  network->AddRandomWindingRoute(rng, o.start, 8, 3.0, 1.2);
}

/// Writes the operation sequence of one seed. It keeps its own model of
/// the live fleet and the standing queries, so most writes are valid, and
/// mixes in the rejections every store must report alike.
class Generator {
 public:
  Generator(std::uint64_t seed, core::Duration horizon)
      : rng_(seed), reach_(std::min(horizon, 12.0)) {
    BuildNetwork(seed, &network_);
  }

  std::vector<Op> Generate() {
    // Half the fleet bulk-loaded in one call, half inserted one by one.
    std::vector<ModDatabase::BulkObject> bulk;
    for (int k = 0; k < 100; ++k) bulk.push_back(NewRow(0.0));
    Register(bulk);
    ops_.push_back(op::BulkInsert{std::move(bulk)});
    for (int k = 0; k < 100; ++k) Insert(next_id_++, 0.0);
    for (int k = 0; k < 14; ++k) Subscribe(next_sub_++, 0.0);
    for (int round = 1; round <= 24; ++round) {
      const core::Time now = 1.5 * round;
      // A route no standing query has been clipped against yet.
      if (round == 5) {
        op::AddRoute add{rng_.Next(),
                         {rng_.Uniform(30.0, 60.0), rng_.Uniform(30.0, 60.0)}};
        AddWindingRoute(add, &network_);
        ops_.push_back(add);
      }
      Updates(now);
      EraseAndReinsert(now);
      if (round % 4 == 2) BulkInsert(now);
      Subscriptions(now);
      if (round % 5 == 0) ops_.push_back(op::Checkpoint{});
      if (round == 7 || round == 13 || round == 20) {
        ops_.push_back(op::Restart{{subs_.begin(), subs_.end()}});
      }
      for (int q = 0; q < 10; ++q) Query(now, q);
      ops_.push_back(op::Check{});
    }
    return std::move(ops_);
  }

 private:
  template <typename Map>
  auto Pick(Map& map) {
    const auto last = static_cast<std::int64_t>(map.size()) - 1;
    return std::next(map.begin(), rng_.UniformInt(0, last));
  }

  /// Route, distance (at or within 2 units of an end half of the time),
  /// position, direction and speed (a fifth parked).
  void Move(core::PositionAttribute* attr) {
    attr->route = static_cast<geo::RouteId>(
        rng_.UniformInt(0, static_cast<std::int64_t>(network_.size()) - 1));
    const geo::Route& route = network_.route(attr->route);
    const double length = route.Length();
    const double u = rng_.Uniform();
    attr->start_route_distance =
        u < 0.15  ? 0.0
        : u < 0.3 ? length
        : u < 0.4 ? rng_.Uniform(0.0, std::min(2.0, length))
        : u < 0.5 ? length - rng_.Uniform(0.0, std::min(2.0, length))
                  : rng_.Uniform(0.0, length);
    attr->start_position = route.PointAt(attr->start_route_distance);
    attr->direction = rng_.Bernoulli(0.5) ? core::TravelDirection::kForward
                                          : core::TravelDirection::kBackward;
    attr->speed = rng_.Bernoulli(0.2) ? 0.0 : rng_.Uniform(0.0, 1.6);
  }

  /// A model starting in [t0, t0 + 1] under any of the seven policies,
  /// with max_speed 0 (unknown) a fifth of the time.
  core::PositionAttribute NewAttr(core::Time t0) {
    core::PositionAttribute attr;
    attr.start_time = t0 + rng_.Uniform(0.0, 1.0);
    Move(&attr);
    attr.policy = static_cast<core::PolicyKind>(rng_.UniformInt(0, 6));
    attr.update_cost = rng_.Uniform(1.0, 8.0);
    attr.max_speed =
        rng_.Bernoulli(0.2) ? 0.0 : attr.speed + rng_.Uniform(0.0, 1.0);
    attr.fixed_threshold = rng_.Uniform(0.5, 4.0);
    attr.period = rng_.Uniform(0.5, 3.0);
    attr.step_threshold = rng_.Uniform(0.5, 3.0);
    return attr;
  }

  ModDatabase::BulkObject NewRow(core::Time t0) {
    return {next_id_++, "b", NewAttr(t0)};
  }
  void Register(const std::vector<ModDatabase::BulkObject>& rows) {
    for (const auto& row : rows) live_[row.id] = row.attr.start_time;
  }
  void Insert(core::ObjectId id, core::Time t0) {
    const core::PositionAttribute attr = NewAttr(t0);
    live_[id] = attr.start_time;
    ops_.push_back(op::Insert{id, attr});
  }

  core::PositionUpdate NewUpdate(core::ObjectId id, core::Time now) {
    core::PositionAttribute attr;
    Move(&attr);
    const core::Time t = std::max(live_[id], now + rng_.Uniform(0.0, 1.0));
    live_[id] = t;
    return {id, t, attr.route, attr.start_route_distance, attr.start_position,
            attr.direction, attr.speed};
  }

  /// Up to 30 updates, a fifth of their objects updated twice, plus at
  /// random slots an update older than its object's latest one in the
  /// batch (refused only if it lands after it; either way the newest model
  /// wins), an unknown object and an unknown route.
  void Updates(core::Time now) {
    std::vector<core::PositionUpdate> batch;
    for (std::int64_t n = rng_.UniformInt(1, 30); n > 0; --n) {
      const core::ObjectId id = Pick(live_)->first;
      batch.push_back(NewUpdate(id, now));
      if (rng_.Bernoulli(0.2)) batch.push_back(NewUpdate(id, now + 0.5));
    }
    const auto put = [&](const core::PositionUpdate& update) {
      batch.insert(std::next(batch.begin(),
                             rng_.UniformInt(0, static_cast<std::int64_t>(
                                                    batch.size()))),
                   update);
    };
    core::PositionUpdate odd = batch.back();
    if (rng_.Bernoulli(0.4)) {
      odd.time = live_.at(odd.object) - rng_.Uniform(0.1, 2.0);
      put(odd);
    }
    odd.time = now + 1.0;
    if (rng_.Bernoulli(0.4)) {
      odd.object = next_id_ + 1000;
      put(odd);
    }
    if (rng_.Bernoulli(0.4)) {
      odd.object = batch.front().object;
      odd.route = static_cast<geo::RouteId>(network_.size() + 3);
      put(odd);
    }
    ops_.push_back(op::UpdateBatch{std::move(batch)});
  }

  /// Erases a few objects and inserts each again with a new model; now
  /// and then an unknown erase, a duplicate or bad insert, or a trip that
  /// ends for good.
  void EraseAndReinsert(core::Time now) {
    for (std::int64_t k = rng_.UniformInt(1, 3); k > 0; --k) {
      const core::ObjectId id = Pick(live_)->first;
      ops_.push_back(op::Erase{id});
      Insert(id, now);
    }
    if (rng_.Bernoulli(0.3)) ops_.push_back(op::Erase{next_id_ + 2000});
    if (rng_.Bernoulli(0.3)) {
      ops_.push_back(op::Insert{Pick(live_)->first, NewAttr(now)});
    }
    if (rng_.Bernoulli(0.3)) {
      core::PositionAttribute bad = NewAttr(now);
      bad.speed = -1.0;
      ops_.push_back(op::Insert{next_id_ + 3000, bad});
    }
    if (rng_.Bernoulli(0.3)) {
      const auto it = Pick(live_);
      ops_.push_back(op::Erase{it->first});
      live_.erase(it);
    }
  }

  /// New ids into the populated store; a quarter of the calls carry a
  /// row on an unknown route, another quarter a duplicate id, and either
  /// fails the whole call.
  void BulkInsert(core::Time now) {
    std::vector<ModDatabase::BulkObject> rows;
    for (std::int64_t k = rng_.UniformInt(3, 20); k > 0; --k) {
      rows.push_back(NewRow(now));
    }
    const double u = rng_.Uniform();
    if (u < 0.25) {
      rows[rows.size() / 2].attr.route =
          static_cast<geo::RouteId>(network_.size() + 5);
    } else if (u < 0.5) {
      rows.push_back({rng_.Bernoulli(0.5) ? Pick(live_)->first : rows[0].id,
                      "d", NewAttr(now)});
    } else {
      Register(rows);
    }
    ops_.push_back(op::BulkInsert{std::move(rows)});
  }

  /// A 7-gon or a rectangle (an eighth of them of zero width) in or
  /// around the network.
  geo::Polygon PickRegion() {
    const geo::Point2 c{rng_.Uniform(-10.0, 100.0), rng_.Uniform(-10.0, 100.0)};
    if (rng_.Bernoulli(0.5)) {
      return geo::Polygon::RegularNGon(c, rng_.Uniform(2.0, 25.0), 7);
    }
    return geo::Polygon::CenteredRectangle(
        c, rng_.Bernoulli(0.125) ? 0.0 : rng_.Uniform(1.0, 25.0),
        rng_.Uniform(1.0, 25.0));
  }

  /// Any mode, AT an instant or DURING a window (some reversed) from a
  /// few units before `now` to two reaches past it.
  void Subscribe(SubscriptionId id, core::Time now) {
    SubscriptionSpec spec;
    spec.region = PickRegion();
    spec.mode = static_cast<SubscriptionMode>(rng_.UniformInt(0, 2));
    spec.time = now + rng_.Uniform(-5.0, 2.0 * reach_);
    if (rng_.Bernoulli(0.5)) {
      spec.windowed = true;
      spec.window_end = spec.time + rng_.Uniform(-5.0, 3.0 * reach_);
    }
    subs_[id] = spec;
    ops_.push_back(op::Subscribe{id, spec});
  }

  /// New standing queries, an id dropped and registered again with a new
  /// query, and now and then an unknown unsubscribe or a duplicate id.
  void Subscriptions(core::Time now) {
    if (rng_.Bernoulli(0.3)) Subscribe(next_sub_++, now);
    if (rng_.Bernoulli(0.3)) {
      const SubscriptionId id = Pick(subs_)->first;
      ops_.push_back(op::Unsubscribe{id});
      Subscribe(id, now);
    }
    if (rng_.Bernoulli(0.1)) ops_.push_back(op::Unsubscribe{next_sub_ + 100});
    if (rng_.Bernoulli(0.1)) {
      const auto& [id, spec] = *subs_.begin();
      ops_.push_back(op::Subscribe{id, spec});
    }
  }

  /// At a time before some starts, inside the reach, around its end or
  /// past it.
  void Query(core::Time now, int q) {
    const double u = rng_.Uniform();
    const core::Time t = u < 0.25  ? now - rng_.Uniform(0.0, 6.0)
                         : u < 0.6 ? now + rng_.Uniform(0.0, reach_)
                         : u < 0.85
                             ? now + reach_ + rng_.Uniform(-1.0, 2.0)
                             : now + rng_.Uniform(reach_, 2.0 * reach_);
    switch (q % 5) {
      case 0:
        ops_.push_back(op::Position{
            rng_.Bernoulli(0.9) ? Pick(live_)->first : next_id_ + 4000, t});
        break;
      case 1:
        ops_.push_back(op::Range{PickRegion(), t});
        break;
      case 2:
        ops_.push_back(
            op::Interval{PickRegion(), t, t + rng_.Uniform(0.0, 1.5 * reach_)});
        break;
      default:  // inside the 90-unit network box and up to 30 units outside
        ops_.push_back(op::Nearest{
            {rng_.Uniform(-30.0, 120.0), rng_.Uniform(-30.0, 120.0)},
            static_cast<std::size_t>(rng_.UniformInt(1, 8)), t});
        break;
    }
  }

  util::Rng rng_;
  core::Duration reach_;  // how far past `now` queries look
  geo::RouteNetwork network_;
  std::map<core::ObjectId, core::Time> live_;  // id -> latest start
  core::ObjectId next_id_ = 0;
  std::map<SubscriptionId, SubscriptionSpec> subs_;
  SubscriptionId next_sub_ = 0;
  std::vector<Op> ops_;
};

// ---- Stores ----

void Put(std::ostream& out, const util::Status& status) {
  out << ' ' << util::StatusCodeName(status.code());
}

/// Appends " <v>" in hex, so equal text means equal bits. (The record
/// sets are rendered after every round, and std::to_chars is several
/// times faster there than a hexfloat stream.)
void Put(std::string& out, double v) {
  char buf[32];
  out += ' ';
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::hex).ptr);
}

void Put(std::string& out, const core::PositionAttribute& a) {
  for (const double v : {a.start_time, a.start_route_distance,
                         a.start_position.x, a.start_position.y, a.speed,
                         a.update_cost, a.max_speed, a.fixed_threshold,
                         a.period, a.step_threshold}) {
    Put(out, v);
  }
  out += ' ' + std::to_string(a.route) + ' ' +
         std::to_string(static_cast<int>(a.direction)) + ' ' +
         std::to_string(static_cast<int>(a.policy));
}

void Put(std::ostream& out, const std::vector<core::ObjectId>& ids,
         const QueryCompleteness* completeness = nullptr) {
  for (const core::ObjectId id : ids) out << ' ' << id;
  if (completeness != nullptr) {
    out << (completeness->complete ? " complete" : " partial");
  }
}

/// One configuration's live store: a ModDatabase with its own engine, or
/// a sharded store with subscriptions on.
class Store {
 public:
  Store(const Group& group, const Config& config,
        const geo::RouteNetwork* network, const fs::path& dir)
      : config_(config), network_(network) {
    ModDatabaseOptions db;
    db.index_kind = config.kind;
    db.oplane_horizon = group.horizon;
    db.oplane_slab_width = group.slab_width;
    db.keep_trajectory = true;
    db.max_trajectory_versions = 3;
    if (config.paged) {
      db.index_storage.kind = storage::StorageKind::kDisk;
      db.index_storage.path = dir / (std::string(config.name) + ".pages");
      db.index_storage.pool_pages = 8;
    }
    if (config.shards == 0) {
      engine_ = std::make_unique<SubscriptionEngine>(
          network, SubscriptionEngine::Options{config.naive});
      plain_ = std::make_unique<ModDatabase>(network, db);
      plain_->AttachSubscriptions(engine_.get());
      return;
    }
    sharded_options_.num_shards = config.shards;
    sharded_options_.num_query_threads = config.query_threads;
    sharded_options_.db = db;
    sharded_options_.enable_subscriptions = true;
    if (config.durable) sharded_options_.durable_dir = dir / config.name;
    sharded_ = std::make_unique<ShardedModDatabase>(network, sharded_options_);
  }

  const Config& config() const { return config_; }
  const SubscriptionEngine* engine() const { return engine_.get(); }

  /// Calls `fn` with whichever store this is.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) {
    return plain_ != nullptr ? fn(*plain_) : fn(*sharded_);
  }

  util::Status Subscribe(SubscriptionId id, const SubscriptionSpec& spec) {
    return plain_ ? engine_->Subscribe(id, spec)
                  : sharded_->Subscribe(id, spec);
  }
  util::Status Unsubscribe(SubscriptionId id) {
    return plain_ ? engine_->Unsubscribe(id) : sharded_->Unsubscribe(id);
  }
  std::size_t num_subscriptions() const {
    return plain_ ? engine_->num_subscriptions()
                  : sharded_->num_subscriptions();
  }
  std::vector<SubscriptionEvent> TakeEvents() {
    return plain_ ? engine_->TakeEvents() : sharded_->TakeSubscriptionEvents();
  }
  util::Status Checkpoint() {
    return config_.durable ? sharded_->Checkpoint() : util::Status::Ok();
  }

  /// Closes and reopens a durable store: a failed reopen goes to
  /// `answer`, the recovery report to `work`.
  void Reopen(std::ostream& answer, std::ostream& work) {
    sharded_.reset();
    sharded_ = std::make_unique<ShardedModDatabase>(network_, sharded_options_);
    if (!sharded_->durability_status().ok()) {
      answer << " reopen " << sharded_->durability_status().ToString();
    }
    const RecoveryReport& r = sharded_->recovery_report();
    work << " recovered " << r.recovered << " clean " << r.clean << ' '
         << r.checkpoint_id << ' ' << r.checkpoints_skipped << ' '
         << r.objects_restored << ' ' << r.wal_records_replayed << ' '
         << r.wal_records_skipped << ' ' << r.wal_bytes_truncated << ' '
         << r.wal_corrupt_segments;
  }

  /// The record set in id order. Restored records count updates from 0
  /// and take the restored model's start as their insert time, so
  /// `counts` is false when a durable store is compared.
  std::string Records(bool counts) {
    std::map<core::ObjectId, std::string> rows;
    Visit([&](auto& db) {
      db.ForEachRecord([&](const MovingObjectRecord& record) {
        std::string& row = rows[record.id];
        row = record.label;
        Put(row, record.attr);
        if (counts) {
          Put(row, record.insert_time);
          row += ' ' + std::to_string(record.update_count);
        }
        row += " past";
        for (const core::PositionAttribute& past : record.past) {
          Put(row, past);
        }
      });
    });
    std::string out;
    for (const auto& [id, row] : rows) {
      out += std::to_string(id) + ':' + row + '\n';
    }
    return out;
  }

  /// A ModDatabase engine's tracked relation of every (standing query,
  /// object) pair, its pair evaluations (evaluated plus skipped by the
  /// join: what a naive rescan evaluates) and its events emitted.
  std::string EngineState(const std::vector<SubscriptionId>& subs) {
    std::vector<core::ObjectId> ids;
    plain_->ForEachRecord(
        [&](const MovingObjectRecord& record) { ids.push_back(record.id); });
    std::sort(ids.begin(), ids.end());
    std::string out;
    for (const core::ObjectId id : ids) {
      for (const SubscriptionId sub : subs) {
        out += static_cast<char>('0' + static_cast<int>(
                                           engine_->RelationOf(sub, id)));
      }
    }
    return out + " pairs " +
           std::to_string(engine_->evals() + engine_->evals_saved()) +
           " events " + std::to_string(engine_->events_emitted());
  }

  /// Empty when the route-band index holds one entry per object and has
  /// missed no removal (the sharded store reports only the misses).
  std::string IndexFault() {
    if (config_.kind != kBands) return "";
    if (sharded_ != nullptr) {
      const std::uint64_t misses =
          sharded_->metrics().GetCounter("mod.index.remove_miss")->value();
      return misses == 0 ? "" : std::to_string(misses) + " remove misses";
    }
    const auto& bands =
        static_cast<const index::RouteBandIndex&>(plain_->object_index());
    if (bands.num_entries() == plain_->num_objects() &&
        bands.remove_misses() == 0) {
      return "";
    }
    return std::to_string(bands.num_entries()) + " entries for " +
           std::to_string(plain_->num_objects()) + " objects, " +
           std::to_string(bands.remove_misses()) + " remove misses";
  }

  /// Whether a ModDatabase's nearest ids for `q` are those of a scan of
  /// every model that covers `q.t`, in `NearestAnswer::ItemOrder`.
  bool NearestIsExact(const op::Nearest& q) const {
    std::vector<NearestAnswer::Item> all;
    plain_->ForEachRecord([&](const MovingObjectRecord& record) {
      const core::PositionAttribute& attr = record.attr;
      if (q.t < attr.start_time ||
          q.t > plain_->object_index().CoverageEnd(attr)) {
        return;
      }
      const geo::Route& route = network_->route(attr.route);
      NearestAnswer::Item item;
      item.id = record.id;
      item.db_distance = geo::Distance(
          q.point, route.PointAt(attr.ClampedDatabaseRouteDistanceAt(
                       q.t, route.Length())));
      all.push_back(item);
    });
    std::sort(all.begin(), all.end(), NearestAnswer::ItemOrder);
    const NearestAnswer answer = plain_->QueryNearest(q.point, q.k, q.t);
    if (answer.items.size() != std::min(q.k, all.size())) return false;
    for (std::size_t i = 0; i < answer.items.size(); ++i) {
      if (answer.items[i].id != all[i].id) return false;
    }
    return true;
  }

 private:
  Config config_;
  const geo::RouteNetwork* network_;
  ShardedModDatabaseOptions sharded_options_;
  // The engine outlives the store attached to it.
  std::unique_ptr<SubscriptionEngine> engine_;
  std::unique_ptr<ModDatabase> plain_;
  std::unique_ptr<ShardedModDatabase> sharded_;
};

/// What one store returned for one operation: `answer` is compared with
/// the reference, `work` with the configuration's peer.
struct Texts {
  std::string answer;
  std::string work;
};

Texts Apply(Store& store, const Op& operation) {
  std::ostringstream answer;
  std::ostringstream work;
  answer << std::hexfloat;
  std::visit(
      Overloaded{
          [&](const op::AddRoute&) {},
          [&](const op::Insert& o) {
            Put(answer, store.Visit([&](auto& db) {
              return db.Insert(o.id, "i", o.attr);
            }));
          },
          [&](const op::BulkInsert& o) {
            Put(answer,
                store.Visit([&](auto& db) { return db.BulkInsert(o.rows); }));
          },
          [&](const op::UpdateBatch& o) {
            UpdateBatchResult r;
            if (store.config().batched) {
              r = store.Visit(
                  [&](auto& db) { return db.ApplyUpdateBatch(o.updates); });
            } else {
              for (const core::PositionUpdate& u : o.updates) {
                r.statuses.push_back(
                    store.Visit([&](auto& db) { return db.ApplyUpdate(u); }));
                ++(r.statuses.back().ok() ? r.applied : r.rejected);
              }
            }
            for (const util::Status& s : r.statuses) Put(answer, s);
            answer << " applied " << r.applied << " rejected " << r.rejected;
          },
          [&](const op::Erase& o) {
            Put(answer, store.Visit([&](auto& db) { return db.Erase(o.id); }));
          },
          [&](const op::Subscribe& o) {
            Put(answer, store.Subscribe(o.id, o.spec));
          },
          [&](const op::Unsubscribe& o) {
            Put(answer, store.Unsubscribe(o.id));
          },
          [&](const op::Checkpoint&) {
            if (util::Status s = store.Checkpoint(); !s.ok()) Put(answer, s);
          },
          [&](const op::Restart& o) {
            if (store.config().durable) {
              store.Reopen(answer, work);
            } else {
              for (const auto& sub : o.subs) {
                if (util::Status s = store.Unsubscribe(sub.first); !s.ok()) {
                  Put(answer, s);
                }
              }
            }
            answer << " subscriptions " << store.num_subscriptions()
                   << " events " << store.TakeEvents().size() << " |";
            for (const auto& [id, spec] : o.subs) {
              Put(answer, store.Subscribe(id, spec));
            }
          },
          [&](const op::Position& o) {
            const util::Result<PositionAnswer> r = store.Visit(
                [&](auto& db) { return db.QueryPosition(o.id, o.t); });
            Put(answer, r.status());
            if (!r.ok()) return;
            answer << ' ' << r->id << ' ' << r->query_time << ' ' << r->route
                   << ' ' << r->route_distance << ' ' << r->position.x << ' '
                   << r->position.y << ' ' << r->slow_bound << ' '
                   << r->fast_bound << ' ' << r->deviation_bound << ' '
                   << r->uncertainty.lo << ' ' << r->uncertainty.hi;
          },
          [&](const op::Range& o) {
            const RangeAnswer r = store.Visit(
                [&](auto& db) { return db.QueryRange(o.region, o.t); });
            answer << r.query_time << " must";
            Put(answer, r.must);
            answer << " may";
            for (std::size_t i = 0; i < r.may.size(); ++i) {
              answer << ' ' << r.may[i] << '~' << r.may_probability[i];
            }
            Put(answer, {}, &r.completeness);
            work << r.candidates_examined;
          },
          [&](const op::Interval& o) {
            const IntervalRangeAnswer r = store.Visit([&](auto& db) {
              return db.QueryRangeInterval(o.region, o.t1, o.t2);
            });
            answer << r.window_start << ' ' << r.window_end << " may";
            Put(answer, r.may);
            answer << " must";
            Put(answer, r.must_at_some_time, &r.completeness);
            work << r.candidates_examined;
          },
          [&](const op::Nearest& o) {
            const NearestAnswer r = store.Visit(
                [&](auto& db) { return db.QueryNearest(o.point, o.k, o.t); });
            answer << r.query_time;
            for (const NearestAnswer::Item& item : r.items) {
              answer << ' ' << item.id << '~' << item.db_distance << '~'
                     << item.min_possible_distance << '~'
                     << item.max_possible_distance;
            }
            Put(answer, {}, &r.completeness);
            work << r.candidates_examined;
          },
          [&](const op::Check&) {},
      },
      operation);
  // The events, at full precision; their ordinals are work (a batch and
  // its records one by one number them differently).
  for (const SubscriptionEvent& e : store.TakeEvents()) {
    answer << "\nevent " << e.subscription << ' ' << e.object << ' '
           << static_cast<int>(e.from) << ' ' << static_cast<int>(e.to) << ' '
           << e.at;
    work << " @" << e.ordinal;
  }
  return {answer.str(), work.str()};
}

// ---- The driver ----

struct Mismatch {
  std::size_t op = 0;
  std::string config;
  std::string what;
};

/// "<what>: line <n>", then that line of each side, the first to differ.
std::string Differs(const std::string& what, const std::string& expected,
                    const std::string& actual) {
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string el;
  std::string al;
  for (int line = 1;; ++line) {
    const bool more_e = static_cast<bool>(std::getline(e, el));
    const bool more_a = static_cast<bool>(std::getline(a, al));
    if (el != al || more_e != more_a || !more_e) {
      return what + ": line " + std::to_string(line) +
             "\n  expected: " + (more_e ? el : "<end>") +
             "\n  actual:   " + (more_a ? al : "<end>");
    }
  }
}

/// Runs `ops` through the group's reference and `configs` in lockstep and
/// returns the first mismatch. Record sets are compared at each Check
/// operation, or after every operation with `check_every_op`.
std::optional<Mismatch> Drive(const Group& group,
                              const std::vector<Config>& configs,
                              const std::vector<Op>& ops, std::uint64_t seed,
                              const fs::path& dir, bool check_every_op) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  geo::RouteNetwork network;
  BuildNetwork(seed, &network);
  Store reference(group, group.reference, &network, dir);
  std::vector<std::unique_ptr<Store>> stores;
  for (const Config& config : configs) {
    stores.push_back(std::make_unique<Store>(group, config, &network, dir));
  }
  std::vector<SubscriptionId> subs;  // every id ever subscribed, ascending
  std::size_t answers = 0;
  std::size_t events = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& operation = ops[i];
    if (const auto* add = std::get_if<op::AddRoute>(&operation)) {
      AddWindingRoute(*add, &network);
    }
    if (const auto* s = std::get_if<op::Subscribe>(&operation);
        s != nullptr && !std::binary_search(subs.begin(), subs.end(), s->id)) {
      subs.insert(std::upper_bound(subs.begin(), subs.end(), s->id), s->id);
    }
    const Texts expected = Apply(reference, operation);
    answers += expected.answer.size();
    events += static_cast<std::size_t>(
        std::count(expected.answer.begin(), expected.answer.end(), '\n'));
    if (const auto* q = std::get_if<op::Nearest>(&operation);
        q != nullptr && !reference.NearestIsExact(*q)) {
      return Mismatch{i, group.reference.name,
                      "nearest ids differ from a scan of the covered models"};
    }
    std::map<std::string, std::string> work;  // of the configs so far
    for (const auto& store : stores) {
      const Config& config = store->config();
      Texts actual = Apply(*store, operation);
      if (actual.answer != expected.answer) {
        return Mismatch{i, config.name,
                        Differs("differs from the reference", expected.answer,
                                actual.answer)};
      }
      const auto peer =
          config.peer == nullptr ? work.end() : work.find(config.peer);
      if (peer != work.end() && peer->second != actual.work) {
        return Mismatch{i, config.name,
                        Differs("work differs from " + peer->first,
                                peer->second, actual.work)};
      }
      work.emplace(config.name, std::move(actual.work));
    }
    if (!check_every_op && !std::holds_alternative<op::Check>(operation)) {
      continue;
    }
    // [durable compared, never restarted]
    const std::string records[] = {reference.Records(false),
                                   reference.Records(true)};
    const std::string engine = reference.EngineState(subs);
    for (const auto& store : stores) {
      const Config& config = store->config();
      const std::string& want = records[config.durable ? 0 : 1];
      std::string actual = store->Records(!config.durable);
      if (const std::string fault = store->IndexFault(); !fault.empty()) {
        actual += "index fault: " + fault + '\n';
      }
      if (actual != want) {
        return Mismatch{
            i, config.name,
            Differs("records differ from the reference", want, actual)};
      }
      if (config.shards == 0 && store->EngineState(subs) != engine) {
        return Mismatch{i, config.name,
                        Differs("the engine differs from the reference",
                                engine, store->EngineState(subs))};
      }
    }
  }
  // The comparisons are not vacuous, and the route-space join skipped
  // pairs the naive rescan evaluated.
  EXPECT_GT(answers, 20000u);
  EXPECT_GT(events, 100u);
  for (const auto& store : stores) {
    if (store->engine() != nullptr) {
      EXPECT_GT(store->engine()->evals_saved(), 0u) << store->config().name;
    }
  }
  fs::remove_all(dir);
  return std::nullopt;
}

class DifferentialTest : public testing::TestWithParam<std::uint64_t> {
 protected:
  void Run(const Group& group, const std::string& name) {
    const std::uint64_t seed = GetParam();
    const std::vector<Op> ops = Generator(seed, group.horizon).Generate();
    const fs::path dir = fs::path(testing::TempDir()) /
                         ("modb_differential_" + name + std::to_string(seed));
    const std::optional<Mismatch> found =
        Drive(group, group.configs, ops, seed, dir, false);
    if (!found.has_value()) return;
    // Replay the failing configuration (after its peer) alone, comparing
    // the records after every operation: the first mismatch ends the
    // shortest failing prefix. (The reference fails only its nearest
    // check.)
    std::vector<Config> replay;
    for (const Config& config : group.configs) {
      if (found->config != config.name) continue;
      for (const Config& peer : group.configs) {
        if (config.peer != nullptr && config.peer == std::string(peer.name)) {
          replay.push_back(peer);
        }
      }
      replay.push_back(config);
    }
    const Mismatch first =
        Drive(group, replay, ops, seed, dir, true).value_or(*found);
    std::ostringstream prefix;
    for (std::size_t i = 0; i <= first.op; ++i) {
      prefix << "\n  " << i << ": " << kOpNames[ops[i].index()];
    }
    ADD_FAILURE() << "seed " << seed << ", configuration " << first.config
                  << ", operation " << first.op << " ("
                  << kOpNames[ops[first.op].index()] << "): " << first.what
                  << "\nshortest failing prefix, " << first.op + 1
                  << " operations:" << prefix.str();
    fs::remove_all(dir);
  }
};

TEST_P(DifferentialTest, Unsharded) { Run(kUnsharded, "unsharded"); }

TEST_P(DifferentialTest, Sharded) { Run(kSharded, "sharded"); }

TEST_P(DifferentialTest, ShortHorizon) { Run(kShortHorizon, "short_horizon"); }

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         testing::Values<std::uint64_t>(1, 2, 3, 4));

}  // namespace
}  // namespace modb::db
