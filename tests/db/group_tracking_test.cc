#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "db/mod_database.h"
#include "db/recovery.h"
#include "db/snapshot.h"
#include "db/subscription_engine.h"
#include "db/wal.h"
#include "geo/polygon.h"
#include "index/timespace_index.h"
#include "sim/fleet.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

/// Order-independent, bit-exact fingerprint of the stored attributes
/// (excludes replay-derived counters, like the recovery suite's).
std::string Signature(const ModDatabase& db) {
  std::map<core::ObjectId, std::string> rows;
  db.ForEachRecord([&](const MovingObjectRecord& record) {
    std::ostringstream row;
    row << std::hexfloat;
    const core::PositionAttribute& a = record.attr;
    row << record.label << ' ' << a.start_time << ' ' << a.route << ' '
        << a.start_route_distance << ' ' << a.start_position.x << ' '
        << a.start_position.y << ' ' << static_cast<int>(a.direction) << ' '
        << a.speed << ' ' << static_cast<int>(a.policy) << ' '
        << a.update_cost << ' ' << a.max_speed;
    rows[record.id] = row.str();
  });
  std::string signature;
  for (const auto& [id, row] : rows) {
    signature += std::to_string(id) + ':' + row + '\n';
  }
  return signature;
}

/// Bit-exact fingerprint of the group state.
std::string GroupsSignature(const ModDatabase& db) {
  std::ostringstream out;
  out << std::hexfloat << "next=" << db.group_next_id() << '\n';
  for (const PersistedGroup& g : db.ExportGroups()) {
    out << g.id << " leader=" << g.leader << " route=" << g.model.route
        << " dir=" << core::DirectionSign(g.model.direction)
        << " v=" << g.model.speed << " t0=" << g.model.anchor_time
        << " s0=" << g.model.anchor_distance << " lo=" << g.model.window_lo
        << " hi=" << g.model.window_hi << " vmax=" << g.model.vmax
        << " w=" << g.model.width << " members=";
    for (core::ObjectId m : g.members) out << m << ',';
    out << '\n';
  }
  return out.str();
}

/// Bit-exact rendering of every query form over a fixed probe grid, with
/// the candidates each one refined.
std::string AnswerSignature(const ModDatabase& db) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const double x0 : {0.0, 30.0, 60.0}) {
    for (const double t : {2.0, 10.0, 25.0, 39.0}) {
      const geo::Polygon region =
          geo::Polygon::Rectangle(x0, -5.0, x0 + 50.0, 125.0);
      const RangeAnswer range = db.QueryRange(region, t);
      out << "R " << x0 << ' ' << t << " cand=" << range.candidates_examined
          << " must=";
      for (core::ObjectId id : range.must) out << id << ',';
      out << " may=";
      for (std::size_t i = 0; i < range.may.size(); ++i) {
        out << range.may[i] << '@' << range.may_probability[i] << ',';
      }
      out << '\n';
      const IntervalRangeAnswer win =
          db.QueryRangeInterval(region, t, t + 6.0, 2.0);
      out << "W " << x0 << ' ' << t << " cand=" << win.candidates_examined
          << " may=";
      for (core::ObjectId id : win.may) out << id << ',';
      out << " must=";
      for (core::ObjectId id : win.must_at_some_time) out << id << ',';
      out << '\n';
      const NearestAnswer near =
          db.QueryNearest({x0 + 20.0, 40.0}, 5, t);
      out << "N " << x0 << ' ' << t << " cand=" << near.candidates_examined
          << ' ';
      for (const NearestAnswer::Item& item : near.items) {
        out << item.id << '@' << item.db_distance << '/'
            << item.min_possible_distance << '/'
            << item.max_possible_distance << ' ';
      }
      out << '\n';
    }
  }
  return out.str();
}

class GroupTrackingTest : public testing::Test {
 protected:
  GroupTrackingTest() { network_.AddGridNetwork(4, 4, 40.0); }

  ModDatabaseOptions Options(bool tracking) const {
    ModDatabaseOptions options;
    options.index_kind = IndexKind::kTimeSpaceRTree;  // the envelope kind
    options.group_tracking.enabled = tracking;
    return options;
  }

  /// Drives the standard convoy-heavy scenario into `db`; deterministic for
  /// a given (seed, batch) so on/off runs see identical update streams.
  sim::FleetStats RunConvoyFleet(ModDatabase* db, std::size_t batch = 1,
                                 std::uint64_t seed = 7) const {
    sim::FleetOptions fleet_options;
    fleet_options.update_batch_size = batch;
    sim::FleetSimulator fleet(db, fleet_options);
    sim::ConvoyScenarioOptions scenario;
    scenario.num_convoys = 3;
    scenario.vehicles_per_convoy = 6;
    scenario.num_singletons = 4;
    scenario.curve.duration = 40.0;
    util::Rng rng(seed);
    sim::BuildConvoyFleet(fleet, network_, scenario, rng);
    EXPECT_TRUE(fleet.RegisterAll().ok());
    EXPECT_TRUE(fleet.Run().ok());
    return fleet.stats();
  }

  core::PositionAttribute Attr(geo::RouteId route, double s, double v,
                               core::Time t0 = 0.0) const {
    core::PositionAttribute attr;
    attr.start_time = t0;
    attr.route = route;
    attr.start_route_distance = s;
    attr.start_position = network_.route(route).PointAt(s);
    attr.direction = core::TravelDirection::kForward;
    attr.speed = v;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kCurrentImmediateLinear;
    return attr;
  }

  core::PositionUpdate Update(core::ObjectId id, core::Time t,
                              geo::RouteId route, double s,
                              double v = 1.0) const {
    core::PositionUpdate u;
    u.object = id;
    u.time = t;
    u.route = route;
    u.route_distance = s;
    u.position = network_.route(route).PointAt(s);
    u.direction = core::TravelDirection::kForward;
    u.speed = v;
    return u;
  }

  /// Inserts `n` objects on route 0 spaced 0.5 apart (tight enough that
  /// every offset plus the policy's deviation bound fits the join window)
  /// and updates them all at t=1 in one batch, triggering a formation.
  void FormConvoy(ModDatabase* db, std::size_t n,
                  core::ObjectId first_id = 1) const {
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = first_id + static_cast<core::ObjectId>(i);
      ASSERT_TRUE(
          db->Insert(id, "m" + std::to_string(id),
                     Attr(0, 0.5 * static_cast<double>(i), 1.0))
              .ok());
    }
    std::vector<core::PositionUpdate> updates;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = first_id + static_cast<core::ObjectId>(i);
      updates.push_back(
          Update(id, 1.0, 0, 1.0 + 0.5 * static_cast<double>(i)));
    }
    ASSERT_TRUE(db->ApplyUpdateBatch(updates).all_ok());
  }

  geo::RouteNetwork network_;
};

TEST_F(GroupTrackingTest, DisabledByDefaultAndWithLinearScan) {
  ModDatabase plain(&network_);
  EXPECT_FALSE(plain.group_tracker().enabled());
  ModDatabaseOptions options = Options(true);
  options.index_kind = IndexKind::kLinearScan;
  ModDatabase scan(&network_, options);
  EXPECT_FALSE(scan.group_tracker().enabled());
  options.index_kind = IndexKind::kRouteBand;
  ModDatabase route(&network_, options);
  EXPECT_FALSE(route.group_tracker().enabled());
  ModDatabase on(&network_, Options(true));
  EXPECT_TRUE(on.group_tracker().enabled());
}

TEST_F(GroupTrackingTest, ManualConvoyFormsOneGroup) {
  ModDatabase db(&network_, Options(true));
  FormConvoy(&db, 4);
  EXPECT_EQ(db.group_tracker().num_groups(), 1u);
  EXPECT_EQ(db.group_tracker().num_grouped_objects(), 4u);
  const auto groups = db.ExportGroups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 4u);
  EXPECT_TRUE(db.group_tracker().IsGrouped(groups[0].leader));
}

TEST_F(GroupTrackingTest, RouteChangeSplitsMemberOut) {
  ModDatabase db(&network_, Options(true));
  FormConvoy(&db, 4);
  ASSERT_EQ(db.group_tracker().num_groups(), 1u);
  // Member 4 turns onto another route: cohesion broken, it must leave and
  // the remaining three keep the group.
  ASSERT_TRUE(db.ApplyUpdate(Update(4, 2.0, 4, 10.0)).ok());
  EXPECT_FALSE(db.group_tracker().IsGrouped(4));
  EXPECT_EQ(db.group_tracker().num_groups(), 1u);
  EXPECT_EQ(db.group_tracker().num_grouped_objects(), 3u);
  // One more leaver drops the group below min size: dissolve.
  ASSERT_TRUE(db.ApplyUpdate(Update(3, 3.0, 4, 10.0)).ok());
  EXPECT_EQ(db.group_tracker().num_groups(), 0u);
  EXPECT_EQ(db.group_tracker().num_grouped_objects(), 0u);
}

TEST_F(GroupTrackingTest, LeaderEraseReelectsThenDissolves) {
  ModDatabase db(&network_, Options(true));
  FormConvoy(&db, 4);
  auto groups = db.ExportGroups();
  ASSERT_EQ(groups.size(), 1u);
  const core::ObjectId leader = groups[0].leader;
  ASSERT_TRUE(db.Erase(leader).ok());
  groups = db.ExportGroups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_NE(groups[0].leader, leader);
  EXPECT_EQ(groups[0].members.size(), 3u);
  // Erasing below min size dissolves; the two survivors answer as
  // individuals again.
  ASSERT_TRUE(db.Erase(groups[0].members[0]).ok());
  EXPECT_EQ(db.group_tracker().num_groups(), 0u);
  EXPECT_EQ(db.num_objects(), 2u);
  const RangeAnswer all =
      db.QueryRange(geo::Polygon::Rectangle(-5.0, -5.0, 125.0, 125.0), 1.0);
  EXPECT_EQ(all.must.size() + all.may.size(), 2u);
}

TEST_F(GroupTrackingTest, ConvoyFleetFormsGroupsAndSkipsTreeWork) {
  util::MetricsRegistry metrics;
  ModDatabase db(&network_, Options(true));
  db.SetMetrics(&metrics, "mod.");
  RunConvoyFleet(&db);
  // Convoys formed and survived to the end of the run.
  EXPECT_GT(db.group_tracker().num_groups(), 0u);
  EXPECT_GE(db.group_tracker().num_grouped_objects(), 3u);
  EXPECT_GT(metrics.GetCounter("mod.group.forms")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("mod.group.leader_upserts")->value(), 0u);
  // The savings: member updates rewritten to box-less hidden rows.
  EXPECT_GT(metrics.GetCounter("mod.group.member_skips")->value(), 0u);
  EXPECT_EQ(metrics.GetGauge("mod.group.count")->value(),
            static_cast<std::int64_t>(db.group_tracker().num_groups()));
  EXPECT_EQ(metrics.GetGauge("mod.group.size")->value(),
            static_cast<std::int64_t>(
                db.group_tracker().num_grouped_objects()));
}

TEST_F(GroupTrackingTest, AnswersByteIdenticalOnVersusOff) {
  ModDatabase off(&network_, Options(false));
  ModDatabase on(&network_, Options(true));
  RunConvoyFleet(&off);
  RunConvoyFleet(&on);
  ASSERT_GT(on.group_tracker().num_groups(), 0u);  // groups actually active
  EXPECT_EQ(Signature(on), Signature(off));
  EXPECT_EQ(AnswerSignature(on), AnswerSignature(off));
}

TEST_F(GroupTrackingTest, SubscriptionStreamsByteIdenticalOnVersusOff) {
  auto run = [this](bool tracking) {
    ModDatabase db(&network_, Options(tracking));
    SubscriptionEngine engine(&network_);
    db.AttachSubscriptions(&engine);
    SubscriptionSpec spec;
    spec.region = geo::Polygon::Rectangle(20.0, -5.0, 90.0, 125.0);
    spec.mode = SubscriptionMode::kMay;
    EXPECT_TRUE(engine.Subscribe(1, spec).ok());
    SubscriptionSpec must_spec = spec;
    must_spec.mode = SubscriptionMode::kMust;
    EXPECT_TRUE(engine.Subscribe(2, must_spec).ok());
    RunConvoyFleet(&db);
    std::string stream;
    for (const SubscriptionEvent& event : engine.TakeEvents()) {
      stream += event.ToString() + '\n';
    }
    return stream;
  };
  const std::string off = run(false);
  const std::string on = run(true);
  EXPECT_FALSE(off.empty());
  EXPECT_EQ(on, off);
}

TEST_F(GroupTrackingTest, BatchSizeInvariantWithGroups) {
  // The group path must keep the batch ≡ sequential contract: final store,
  // membership, and subscription streams identical for any uplink batch.
  auto run = [this](std::size_t batch) {
    auto db = std::make_unique<ModDatabase>(&network_, Options(true));
    auto engine = std::make_unique<SubscriptionEngine>(&network_);
    db->AttachSubscriptions(engine.get());
    SubscriptionSpec spec;
    spec.region = geo::Polygon::Rectangle(20.0, -5.0, 90.0, 125.0);
    spec.mode = SubscriptionMode::kMay;
    EXPECT_TRUE(engine->Subscribe(1, spec).ok());
    RunConvoyFleet(db.get(), batch);
    std::string stream;
    for (const SubscriptionEvent& event : engine->TakeEvents()) {
      stream += event.ToString() + '\n';
    }
    return std::tuple(Signature(*db), GroupsSignature(*db),
                      AnswerSignature(*db), stream);
  };
  const auto base = run(1);
  for (const std::size_t batch : {std::size_t{3}, std::size_t{64}}) {
    const auto other = run(batch);
    EXPECT_EQ(std::get<0>(other), std::get<0>(base)) << "batch=" << batch;
    EXPECT_EQ(std::get<1>(other), std::get<1>(base)) << "batch=" << batch;
    EXPECT_EQ(std::get<2>(other), std::get<2>(base)) << "batch=" << batch;
    EXPECT_EQ(std::get<3>(other), std::get<3>(base)) << "batch=" << batch;
  }
}

TEST_F(GroupTrackingTest, SnapshotRoundTripRestoresGroups) {
  ModDatabase db(&network_, Options(true));
  RunConvoyFleet(&db);
  ASSERT_GT(db.group_tracker().num_groups(), 0u);
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(db, stream).ok());
  const auto loaded = ReadSnapshot(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->database->group_tracker().enabled());
  EXPECT_EQ(GroupsSignature(*loaded->database), GroupsSignature(db));
  EXPECT_EQ(Signature(*loaded->database), Signature(db));
  EXPECT_EQ(AnswerSignature(*loaded->database), AnswerSignature(db));
}

TEST_F(GroupTrackingTest, WalRecoveryRestoresGroupsAndAnswers) {
  const std::string dir =
      (fs::path(testing::TempDir()) / "group_wal_recovery").string();
  fs::remove_all(dir);
  std::string records, groups, answers;
  {
    ModDatabase db(&network_, Options(true));
    auto manager = DurabilityManager::Open(&db, dir);
    ASSERT_TRUE(manager.ok()) << manager.status().message();
    RunConvoyFleet(&db);
    ASSERT_GT(db.group_tracker().num_groups(), 0u);
    records = Signature(db);
    groups = GroupsSignature(db);
    answers = AnswerSignature(db);
  }
  const auto recovered = Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_TRUE(recovered->report.clean);
  EXPECT_EQ(Signature(*recovered->database), records);
  EXPECT_EQ(GroupsSignature(*recovered->database), groups);
  EXPECT_EQ(AnswerSignature(*recovered->database), answers);
  fs::remove_all(dir);
}

TEST_F(GroupTrackingTest, GroupedRestartIsOnePackedBuild) {
  // A grouped store reopened from its WAL directory rebuilds its index in
  // one packed load — hidden members, envelopes and singletons together —
  // on a resident and on a disk-backed tree alike: the same answers and
  // entries as the writer, and no node split.
  for (const bool disk : {false, true}) {
    SCOPED_TRACE(disk ? "disk index" : "resident index");
    const fs::path dir = fs::path(testing::TempDir()) /
                         (disk ? "grouped_restart_disk" : "grouped_restart");
    fs::remove_all(dir);
    fs::create_directories(dir);
    ModDatabaseOptions options = Options(true);
    if (disk) {
      options.index_storage.kind = storage::StorageKind::kDisk;
      options.index_storage.path = (dir / "index.pages").string();
    }
    std::string answers;
    std::size_t entries = 0;
    {
      ModDatabase writer(&network_, options);
      auto manager = DurabilityManager::Open(&writer, (dir / "wal").string());
      ASSERT_TRUE(manager.ok()) << manager.status().message();
      RunConvoyFleet(&writer);
      ASSERT_GT(writer.group_tracker().num_groups(), 0u);
      answers = AnswerSignature(writer);
      entries = writer.object_index().num_entries();
    }
    ModDatabase reopened(&network_, options);
    auto manager = DurabilityManager::Open(&reopened, (dir / "wal").string());
    ASSERT_TRUE(manager.ok()) << manager.status().message();
    ASSERT_TRUE((*manager)->recovery_report().recovered);
    EXPECT_GT(reopened.group_tracker().num_groups(), 0u);
    EXPECT_EQ(AnswerSignature(reopened), answers);
    EXPECT_EQ(reopened.object_index().num_entries(), entries);
    const auto& tree =
        dynamic_cast<const index::TimeSpaceIndex&>(reopened.object_index())
            .rtree();
    EXPECT_TRUE(tree.CheckInvariants().ok());
    EXPECT_EQ(tree.splits(), 0u);
    manager->reset();
    fs::remove_all(dir);
  }
}

TEST_F(GroupTrackingTest, MetricsAggregateAcrossDatabases) {
  // Two databases sharing one registry must aggregate like shards: the
  // signed-delta gauges sum, and a detach withdraws the contribution.
  util::MetricsRegistry metrics;
  ModDatabase a(&network_, Options(true));
  ModDatabase b(&network_, Options(true));
  a.SetMetrics(&metrics, "mod.");
  b.SetMetrics(&metrics, "mod.");
  FormConvoy(&a, 4, 1);
  FormConvoy(&b, 3, 100);
  EXPECT_EQ(metrics.GetGauge("mod.group.count")->value(), 2);
  EXPECT_EQ(metrics.GetGauge("mod.group.size")->value(), 7);
  EXPECT_EQ(metrics.GetCounter("mod.group.forms")->value(), 2u);
  b.SetMetrics(nullptr);
  EXPECT_EQ(metrics.GetGauge("mod.group.count")->value(), 1);
  EXPECT_EQ(metrics.GetGauge("mod.group.size")->value(), 4);
}

TEST_F(GroupTrackingTest, WalFailureRollsBackGroupState) {
  // A formation whose WAL append fails must leave no group behind and keep
  // the store untouched.
  ModDatabase db(&network_, Options(true));
  for (core::ObjectId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(db.Insert(id, "m", Attr(0, static_cast<double>(id), 1.0))
                    .ok());
  }
  const std::string before = Signature(db);
  const std::string dir =
      (fs::path(testing::TempDir()) / "group_wal_failure").string();
  fs::remove_all(dir);
  util::FaultPlan plan;
  plan.crash_after_bytes = 1;  // first append fails mid-frame
  util::FaultInjector injector(plan);
  WalWriterOptions wal_options;
  wal_options.file_factory = injector.factory();
  auto wal = WalWriter::Open(dir, 1, wal_options);
  ASSERT_TRUE(wal.ok());
  db.AttachWal(wal->get());
  std::vector<core::PositionUpdate> updates;
  for (core::ObjectId id = 1; id <= 4; ++id) {
    updates.push_back(Update(id, 1.0, 0, 1.0 + static_cast<double>(id)));
  }
  const UpdateBatchResult result = db.ApplyUpdateBatch(updates);
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(db.group_tracker().num_groups(), 0u);
  EXPECT_EQ(db.group_tracker().num_grouped_objects(), 0u);
  EXPECT_EQ(Signature(db), before);
  db.AttachWal(nullptr);
  // The tracker still works after the rollback.
  std::vector<core::PositionUpdate> retry;
  for (core::ObjectId id = 1; id <= 4; ++id) {
    retry.push_back(Update(id, 2.0, 0, 2.0 + static_cast<double>(id)));
  }
  ASSERT_TRUE(db.ApplyUpdateBatch(retry).all_ok());
  EXPECT_EQ(db.group_tracker().num_groups(), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace modb::db
