#include "db/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "answer_text.h"
#include "db/wal.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

/// Order-independent, bit-exact state fingerprint. Deliberately excludes
/// the update counters: a recovered database re-derives them from replay,
/// and the checkpoint does not persist them.
std::string Signature(const ModDatabase& db) {
  std::map<core::ObjectId, std::string> rows;
  db.ForEachRecord([&](const MovingObjectRecord& record) {
    std::ostringstream row;
    row << std::hexfloat;
    const auto put_attr = [&row](const core::PositionAttribute& a) {
      row << ' ' << a.start_time << ' ' << a.route << ' '
          << a.start_route_distance << ' ' << a.start_position.x << ' '
          << a.start_position.y << ' ' << static_cast<int>(a.direction) << ' '
          << a.speed << ' ' << static_cast<int>(a.policy) << ' '
          << a.update_cost << ' ' << a.max_speed << ' ' << a.fixed_threshold
          << ' ' << a.period << ' ' << a.step_threshold;
    };
    row << record.label;
    put_attr(record.attr);
    row << " past=" << record.past.size();
    for (const core::PositionAttribute& past : record.past) put_attr(past);
    rows[record.id] = row.str();
  });
  std::string signature;
  for (const auto& [id, row] : rows) {
    signature += std::to_string(id) + ':' + row + '\n';
  }
  return signature;
}

class RecoveryTest : public testing::Test {
 protected:
  RecoveryTest() {
    main_ = network_.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "main st");
  }

  void SetUp() override {
    dir_ = (fs::path(testing::TempDir()) /
            ("recovery_test_" +
             std::string(testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  core::PositionAttribute Attr(double s, double v) const {
    core::PositionAttribute attr;
    attr.start_time = 0.0;
    attr.route = main_;
    attr.start_route_distance = s;
    attr.start_position = network_.route(main_).PointAt(s);
    attr.direction = core::TravelDirection::kForward;
    attr.speed = v;
    return attr;
  }

  core::PositionUpdate Update(core::ObjectId id, double time,
                              double s) const {
    core::PositionUpdate update;
    update.object = id;
    update.time = time;
    update.route = main_;
    update.route_distance = s;
    update.position = network_.route(main_).PointAt(s);
    update.direction = core::TravelDirection::kForward;
    update.speed = 1.0;
    return update;
  }

  std::size_t CountCheckpoints() const {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().filename().string().find("checkpoint-") == 0) ++n;
    }
    return n;
  }

  geo::RouteNetwork network_;
  geo::RouteId main_ = geo::kInvalidRouteId;
  std::string dir_;
};

TEST_F(RecoveryTest, BootstrapCheckpointsAndAttachesWal) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "seed", Attr(5.0, 1.0)).ok());

  auto manager = DurabilityManager::Open(&db, dir_);
  ASSERT_TRUE(manager.ok()) << manager.status().message();
  EXPECT_FALSE((*manager)->recovery_report().recovered);
  EXPECT_TRUE((*manager)->recovery_report().clean);
  EXPECT_EQ(db.wal(), (*manager)->wal());
  ASSERT_NE(db.wal(), nullptr);
  EXPECT_EQ(db.wal()->epoch(), 1u);
  EXPECT_TRUE(fs::exists(fs::path(dir_) / CheckpointFileName(1)));

  // Mutations flow into the WAL.
  ASSERT_TRUE(db.ApplyUpdate(Update(1, 1.0, 6.0)).ok());
  EXPECT_EQ(db.wal()->appends(), 1u);
}

TEST_F(RecoveryTest, ManagerDetachesWalOnDestruction) {
  ModDatabase db(&network_);
  {
    auto manager = DurabilityManager::Open(&db, dir_);
    ASSERT_TRUE(manager.ok());
    ASSERT_NE(db.wal(), nullptr);
  }
  EXPECT_EQ(db.wal(), nullptr);
}

TEST_F(RecoveryTest, RecoverRestoresCheckpointPlusWalSuffix) {
  std::string expected;
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir_);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(db.Insert(1, "bus-1", Attr(5.0, 1.0)).ok());
    ASSERT_TRUE(db.Insert(2, "bus-2", Attr(10.0, 0.5)).ok());
    ASSERT_TRUE(db.ApplyUpdate(Update(1, 1.0, 6.5)).ok());
    ASSERT_TRUE(db.Insert(3, "bus-3", Attr(20.0, 2.0)).ok());
    ASSERT_TRUE(db.Erase(2).ok());
    expected = Signature(db);
  }

  auto recovered = Recover(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_TRUE(recovered->report.recovered);
  EXPECT_TRUE(recovered->report.clean);
  EXPECT_EQ(recovered->report.wal_records_replayed, 5u);
  EXPECT_EQ(recovered->report.wal_records_skipped, 0u);
  EXPECT_EQ(Signature(*recovered->database), expected);
  // The recovered store is live: its WAL is attached and writable.
  ASSERT_NE(recovered->database->wal(), nullptr);
  ASSERT_TRUE(
      recovered->database->ApplyUpdate(Update(1, 2.0, 8.0)).ok());
}

TEST_F(RecoveryTest, OpenRecoversIntoCallerDatabase) {
  std::string expected;
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir_);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(db.Insert(1, "bus-1", Attr(5.0, 1.0)).ok());
    ASSERT_TRUE(db.ApplyUpdate(Update(1, 2.0, 7.0)).ok());
    expected = Signature(db);
  }

  ModDatabase db(&network_);
  auto manager = DurabilityManager::Open(&db, dir_);
  ASSERT_TRUE(manager.ok()) << manager.status().message();
  EXPECT_TRUE((*manager)->recovery_report().recovered);
  EXPECT_EQ(Signature(db), expected);
}

TEST_F(RecoveryTest, OpenRequiresEmptyDatabaseWhenRecovering) {
  {
    ModDatabase db(&network_);
    ASSERT_TRUE(DurabilityManager::Open(&db, dir_).ok());
  }
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "pre-existing", Attr(1.0, 1.0)).ok());
  auto manager = DurabilityManager::Open(&db, dir_);
  ASSERT_FALSE(manager.ok());
  EXPECT_EQ(manager.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, RecoverOfMissingDirectoryIsNotFound) {
  EXPECT_EQ(Recover(dir_).status().code(), util::StatusCode::kNotFound);
  fs::create_directories(dir_);
  EXPECT_EQ(Recover(dir_).status().code(), util::StatusCode::kNotFound);
}

TEST_F(RecoveryTest, CheckpointStartsFreshEpochAndPrunes) {
  DurabilityOptions options;
  options.checkpoints_to_keep = 1;
  ModDatabase db(&network_);
  auto manager = DurabilityManager::Open(&db, dir_, options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(db.Insert(1, "bus", Attr(5.0, 1.0)).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.ApplyUpdate(Update(1, 1.0 + i, 6.0 + i)).ok());
  }
  const std::string before = Signature(db);
  ASSERT_FALSE(ListWalSegments(dir_).empty());

  ASSERT_TRUE((*manager)->Checkpoint().ok());
  EXPECT_EQ(db.wal()->epoch(), 2u);
  EXPECT_EQ(CountCheckpoints(), 1u);
  EXPECT_TRUE(fs::exists(fs::path(dir_) / CheckpointFileName(2)));
  // Epoch-1 segments are superseded by checkpoint 2 and deleted.
  for (const WalSegmentInfo& seg : ListWalSegments(dir_)) {
    EXPECT_GE(seg.epoch, 2u);
  }

  // State survives a checkpoint + reopen with nothing in the WAL.
  (void)manager->reset();
  auto recovered = Recover(dir_, options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Signature(*recovered->database), before);
  EXPECT_EQ(recovered->report.wal_records_replayed, 0u);
}

TEST_F(RecoveryTest, CorruptNewestCheckpointFallsBackAndChainsEpochs) {
  DurabilityOptions options;
  options.checkpoints_to_keep = 2;
  std::string expected;
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir_, options);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(db.Insert(1, "bus", Attr(5.0, 1.0)).ok());
    ASSERT_TRUE(db.ApplyUpdate(Update(1, 1.0, 6.0)).ok());
    ASSERT_TRUE((*manager)->Checkpoint().ok());  // checkpoint 2, epoch 2
    ASSERT_TRUE(db.ApplyUpdate(Update(1, 2.0, 7.0)).ok());
    ASSERT_TRUE(db.Insert(2, "van", Attr(50.0, 0.5)).ok());
    expected = Signature(db);
  }

  // Newest checkpoint rots on disk. Recovery must fall back to checkpoint
  // 1 and chain epoch 1 + epoch 2 forward — losing nothing.
  const std::string newest =
      (fs::path(dir_) / CheckpointFileName(2)).string();
  auto size = util::FileSize(newest);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(util::TruncateFile(newest, *size / 2).ok());

  auto recovered = Recover(dir_, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_FALSE(recovered->report.clean);
  EXPECT_EQ(recovered->report.checkpoint_id, 1u);
  EXPECT_EQ(recovered->report.checkpoints_skipped, 1u);
  EXPECT_EQ(recovered->report.wal_records_replayed, 4u);
  EXPECT_EQ(Signature(*recovered->database), expected);
}

TEST_F(RecoveryTest, EveryCheckpointCorruptFailsRecovery) {
  {
    ModDatabase db(&network_);
    ASSERT_TRUE(DurabilityManager::Open(&db, dir_).ok());
  }
  ASSERT_TRUE(util::TruncateFile(
                  (fs::path(dir_) / CheckpointFileName(1)).string(), 3)
                  .ok());
  EXPECT_FALSE(Recover(dir_).ok());
}

TEST_F(RecoveryTest, TornWalTailRecoversThePrefix) {
  std::string prefix_signature;
  std::uint64_t full_bytes = 0;
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir_);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(db.Insert(1, "bus", Attr(5.0, 1.0)).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db.ApplyUpdate(Update(1, 1.0 + i, 6.0 + i)).ok());
      if (i == 3) prefix_signature = Signature(db);
    }
    full_bytes = db.wal()->bytes();
  }

  // Tear the log inside the last update record: byte sizes per record are
  // fixed for updates, so cutting 10 bytes off the tail lands mid-frame.
  const auto segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  auto size = util::FileSize(segments[0].path);
  ASSERT_TRUE(size.ok());
  ASSERT_EQ(*size, full_bytes);
  ASSERT_TRUE(util::TruncateFile(segments[0].path, *size - 10).ok());

  auto recovered = Recover(dir_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->report.clean);
  EXPECT_GT(recovered->report.wal_bytes_truncated, 0u);
  EXPECT_EQ(recovered->report.wal_records_replayed, 5u);  // insert + 4
  EXPECT_EQ(Signature(*recovered->database), prefix_signature);
}

TEST_F(RecoveryTest, RecoveryNeverLosesCheckpointedState) {
  // Even with the entire WAL destroyed, recovery returns at least the
  // last checkpoint.
  std::string checkpointed;
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir_);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(db.Insert(1, "bus", Attr(5.0, 1.0)).ok());
    ASSERT_TRUE((*manager)->Checkpoint().ok());
    checkpointed = Signature(db);
    ASSERT_TRUE(db.ApplyUpdate(Update(1, 1.0, 6.0)).ok());
  }
  for (const WalSegmentInfo& seg : ListWalSegments(dir_)) {
    fs::remove(seg.path);
  }
  auto recovered = Recover(dir_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Signature(*recovered->database), checkpointed);
}

TEST_F(RecoveryTest, ExportMetricsCountsRecoveryAndLiveWal) {
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir_);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(db.Insert(1, "bus", Attr(5.0, 1.0)).ok());
    ASSERT_TRUE(db.ApplyUpdate(Update(1, 1.0, 6.0)).ok());
  }

  auto recovered = Recover(dir_);
  ASSERT_TRUE(recovered.ok());
  util::MetricsRegistry registry;
  recovered->durability->ExportMetrics(&registry);
  EXPECT_EQ(registry.GetCounter("recovery.records_replayed")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("recovery.bytes_truncated")->value(), 0u);

  // The live WAL reports through the same registry — including after a
  // checkpoint swaps in a fresh-epoch writer.
  ASSERT_TRUE(recovered->database->ApplyUpdate(Update(1, 2.0, 7.0)).ok());
  EXPECT_EQ(registry.GetCounter("wal.appends")->value(), 1u);
  ASSERT_TRUE(recovered->durability->Checkpoint().ok());
  ASSERT_TRUE(recovered->database->ApplyUpdate(Update(1, 3.0, 8.0)).ok());
  EXPECT_EQ(registry.GetCounter("wal.appends")->value(), 2u);
}

TEST_F(RecoveryTest, SyncEveryAppendSurvivesWithFaultFreeInjector) {
  DurabilityOptions options;
  options.wal.sync_every_append = true;
  ModDatabase db(&network_);
  auto manager = DurabilityManager::Open(&db, dir_, options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(db.Insert(1, "bus", Attr(5.0, 1.0)).ok());
  ASSERT_TRUE(db.ApplyUpdate(Update(1, 1.0, 6.0)).ok());
}

// Regression: a checkpoint whose route point count or past-version count
// claimed more elements than the file holds aborted recovery on the
// allocation instead of being skipped like any other corrupt checkpoint.
TEST_F(RecoveryTest, CheckpointWithUnbackedCountFallsBack) {
  DurabilityOptions options;
  options.checkpoints_to_keep = 2;
  const fs::path source = fs::path(dir_) / "source";
  std::string expected;
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, source.string(), options);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(db.Insert(1, "bus", Attr(5.0, 1.0)).ok());
    ASSERT_TRUE(db.ApplyUpdate(Update(1, 1.0, 6.0)).ok());
    ASSERT_TRUE((*manager)->Checkpoint().ok());  // checkpoint 2, epoch 2
    ASSERT_TRUE(db.ApplyUpdate(Update(1, 2.0, 7.0)).ok());
    ASSERT_TRUE(db.Insert(2, "van", Attr(50.0, 0.5)).ok());
    expected = Signature(db);
  }
  std::string text;
  {
    std::ifstream in(source / CheckpointFileName(2));
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  // "route 0 <num_points> ..." and the object line's last token, its past
  // version count.
  const auto points_at = text.find("\nroute 0 2 ") + 9;
  const auto object_end = text.find('\n', text.find("\nobject 1 ") + 1);
  const auto past_at = text.rfind(' ', object_end) + 1;
  ASSERT_EQ(text.substr(points_at, 2), "2 ");
  ASSERT_EQ(text.substr(past_at, object_end - past_at), "0");

  int n = 0;
  for (const std::string& count :
       {std::string("100000000000000"), std::string("18446744073709551615")}) {
    for (const std::size_t at : {points_at, past_at}) {
      SCOPED_TRACE(count + " at " + std::to_string(at));
      const fs::path dir = fs::path(dir_) / ("case" + std::to_string(n++));
      fs::copy(source, dir, fs::copy_options::recursive);
      std::string corrupt = text;
      corrupt.replace(at, 1, count);
      std::ofstream(dir / CheckpointFileName(2), std::ios::trunc) << corrupt;

      auto recovered = Recover(dir.string(), options);
      ASSERT_TRUE(recovered.ok()) << recovered.status().message();
      EXPECT_EQ(recovered->report.checkpoint_id, 1u);
      EXPECT_EQ(recovered->report.checkpoints_skipped, 1u);
      EXPECT_NE(recovered->report.detail.find("malformed snapshot"),
                std::string::npos)
          << recovered->report.detail;
      EXPECT_EQ(Signature(*recovered->database), expected);
    }
  }
}

TEST_F(RecoveryTest, LegacyGroupBatchReplaysLikeUpdateBatch) {
  // The same inserts and update batches, logged once in the plain update
  // framing and once in the retired convoy framing (`kGroupBatch`) with
  // transitions of every kind, recover to the same records and answers.
  const geo::RouteId bend = network_.AddRoute(
      geo::Polyline({{0.0, 10.0}, {30.0, 10.0}, {30.0, 40.0}}), "bend");
  std::vector<std::vector<core::PositionUpdate>> batches;
  for (int b = 0; b < 4; ++b) {
    std::vector<core::PositionUpdate> batch;
    for (core::ObjectId id = 1; id <= 6; ++id) {
      core::PositionUpdate u = Update(id, 1.0 + b, 8.0 * id + 2.0 * b);
      if (id % 2 == 0) {
        u.route = bend;
        u.position = network_.route(bend).PointAt(u.route_distance);
      }
      batch.push_back(u);
    }
    // One row off the route geometry and one at its own time, so those
    // fields are logged rather than elided.
    batch[0].position.y += 0.25;
    batch[1].time += 0.5;
    batches.push_back(batch);
  }
  std::vector<GroupTransition> transitions;
  for (std::uint8_t kind = 1; kind <= 6; ++kind) {
    GroupTransition t;
    t.kind = static_cast<GroupTransitionKind>(kind);
    t.group = 1;
    t.leader = 1 + kind % 3;
    t.members = {1, 3, 5};
    t.model.route = main_;
    t.model.speed = 1.0;
    transitions.push_back(t);
  }

  const auto write = [&](const std::string& dir, bool legacy) {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir);
    ASSERT_TRUE(manager.ok());
    for (core::ObjectId id = 1; id <= 6; ++id) {
      ASSERT_TRUE(
          db.Insert(id, "v" + std::to_string(id), Attr(8.0 * id, 0.25 * id))
              .ok());
    }
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const util::Status s =
          legacy ? db.wal()->AppendGroupBatch(batches[b], {transitions[b]},
                                              network_)
                 : db.wal()->AppendUpdateBatch(batches[b]);
      ASSERT_TRUE(s.ok()) << s.message();
    }
    if (legacy) {
      // A transitions-only record, as a formation without updates logged.
      ASSERT_TRUE(db.wal()
                      ->AppendGroupBatch({}, {transitions[4], transitions[5]},
                                         network_)
                      .ok());
    }
  };
  const std::string plain_dir = dir_ + "/plain";
  const std::string legacy_dir = dir_ + "/legacy";
  write(plain_dir, false);
  write(legacy_dir, true);

  // The legacy log really holds the compact framing, with both elisions,
  // logged fields and every transition kind.
  std::size_t group_records = 0;
  std::size_t rows = 0;
  std::size_t time_elided = 0;
  std::size_t position_elided = 0;
  unsigned kinds = 0;
  const auto replayed = ReplayWal(legacy_dir, 1, [&](const WalRecord& r) {
    if (r.type != WalRecordType::kGroupBatch) return util::Status::Ok();
    ++group_records;
    for (const GroupWalRow& row : r.group_rows) {
      ++rows;
      time_elided += row.time_elided ? 1 : 0;
      position_elided += row.position_elided ? 1 : 0;
    }
    for (const GroupTransition& t : r.group_transitions) {
      kinds |= 1u << static_cast<unsigned>(t.kind);
    }
    return util::Status::Ok();
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(group_records, 5u);
  EXPECT_EQ(rows, 24u);
  EXPECT_GT(time_elided, 0u);
  EXPECT_LT(time_elided, rows);
  EXPECT_GT(position_elided, 0u);
  EXPECT_LT(position_elided, rows);
  EXPECT_EQ(kinds, 0b1111110u);

  auto plain = Recover(plain_dir);
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  auto legacy = Recover(legacy_dir);
  ASSERT_TRUE(legacy.ok()) << legacy.status().message();
  EXPECT_TRUE(legacy->report.clean) << legacy->report.detail;
  EXPECT_EQ(legacy->report.wal_records_replayed, 6u + 5u);
  EXPECT_EQ(legacy->report.wal_records_skipped, 0u);
  EXPECT_EQ(Signature(*legacy->database), Signature(*plain->database));
  EXPECT_EQ(AnswerText(*legacy->database), AnswerText(*plain->database));
}

TEST_F(RecoveryTest, LegacyRowOnRouteWithFewerThanTwoPointsIsSkipped) {
  // A legacy row whose position was elided is rehydrated from its route
  // before the update is validated. Replayed against a network where that
  // route has one point, the row must be rejected, not interpolated past
  // the route's only point.
  const geo::RouteId side =
      network_.AddStraightRoute({0.0, 5.0}, {50.0, 5.0}, "side");
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir_);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(db.Insert(1, "bus", Attr(5.0, 1.0)).ok());
    core::PositionUpdate onto = Update(1, 1.0, 10.0);
    onto.route = side;
    onto.position = network_.route(side).PointAt(10.0);
    ASSERT_TRUE(db.wal()->AppendGroupBatch({onto}, {}, network_).ok());
  }
  geo::RouteNetwork stubbed;
  ASSERT_EQ(stubbed.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "main st"),
            main_);
  ASSERT_EQ(stubbed.AddStraightRoute({3.0, 5.0}, {3.0, 5.0}, "side"), side);
  ModDatabase db(&stubbed);
  auto manager = DurabilityManager::Open(&db, dir_);
  ASSERT_TRUE(manager.ok()) << manager.status().message();
  const RecoveryReport& report = (*manager)->recovery_report();
  EXPECT_EQ(report.wal_records_replayed, 2u);
  EXPECT_EQ(report.wal_records_skipped, 1u);
  const auto rec = db.Get(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->attr.route, main_);
  EXPECT_EQ((*rec)->update_count, 0u);
}

}  // namespace
}  // namespace modb::db
