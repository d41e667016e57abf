#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "db/sharded_database.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

std::string Fingerprint(const ShardedModDatabase& db) {
  std::map<core::ObjectId, std::string> rows;
  db.ForEachRecord([&](const MovingObjectRecord& record) {
    std::ostringstream row;
    row << std::hexfloat << record.label << ' ' << record.attr.start_time
        << ' ' << record.attr.start_route_distance << ' '
        << record.attr.speed;
    rows[record.id] = row.str();
  });
  std::string out;
  for (const auto& [id, row] : rows) {
    out += std::to_string(id) + ':' + row + '\n';
  }
  return out;
}

class ShardedDurabilityTest : public testing::Test {
 protected:
  ShardedDurabilityTest() {
    main_ = network_.AddStraightRoute({0.0, 0.0}, {500.0, 0.0}, "main st");
  }

  void SetUp() override {
    dir_ = (fs::path(testing::TempDir()) /
            ("sharded_durability_" +
             std::string(testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ShardedModDatabaseOptions Options() const {
    ShardedModDatabaseOptions options;
    options.num_shards = 4;
    options.num_query_threads = 0;  // inline fan-out: single-core friendly
    options.durable_dir = dir_;
    return options;
  }

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

  geo::RouteNetwork network_;
  geo::RouteId main_ = geo::kInvalidRouteId;
  std::string dir_;
};

TEST_F(ShardedDurabilityTest, BootstrapCreatesPerShardDirectories) {
  ShardedModDatabase db(&network_, Options());
  ASSERT_TRUE(db.durability_status().ok())
      << db.durability_status().message();
  EXPECT_FALSE(db.recovery_report().recovered);
  std::size_t shard_dirs = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("shard-", 0) == 0) {
      ++shard_dirs;
    }
  }
  EXPECT_EQ(shard_dirs, 4u);
}

TEST_F(ShardedDurabilityTest, ReopenRecoversEveryShard) {
  std::string expected;
  {
    ShardedModDatabase db(&network_, Options());
    ASSERT_TRUE(db.durability_status().ok());
    for (core::ObjectId id = 1; id <= 40; ++id) {
      ASSERT_TRUE(
          db.Insert(id, "obj-" + std::to_string(id),
                    Attr(static_cast<double>(id) * 10.0, 1.0))
              .ok());
    }
    for (core::ObjectId id = 1; id <= 40; ++id) {
      ASSERT_TRUE(
          db.ApplyUpdate(
                Update(id, 1.0, static_cast<double>(id) * 10.0 + 1.0))
              .ok());
    }
    ASSERT_TRUE(db.Erase(7).ok());
    ASSERT_TRUE(db.Erase(23).ok());
    expected = Fingerprint(db);
  }

  ShardedModDatabase db(&network_, Options());
  ASSERT_TRUE(db.durability_status().ok())
      << db.durability_status().message();
  EXPECT_TRUE(db.recovery_report().recovered);
  EXPECT_TRUE(db.recovery_report().clean);
  EXPECT_EQ(db.recovery_report().wal_records_replayed, 82u);
  EXPECT_EQ(db.num_objects(), 38u);
  EXPECT_EQ(Fingerprint(db), expected);

  // The recovered store answers queries and keeps logging.
  auto answer = db.QueryPosition(1, 2.0);
  ASSERT_TRUE(answer.ok());
  ASSERT_TRUE(db.ApplyUpdate(Update(1, 3.0, 14.0)).ok());
}

TEST_F(ShardedDurabilityTest, BulkInsertIsDurablePerRecord) {
  {
    ShardedModDatabase db(&network_, Options());
    ASSERT_TRUE(db.durability_status().ok());
    std::vector<ShardedModDatabase::BulkObject> batch;
    for (core::ObjectId id = 1; id <= 20; ++id) {
      batch.push_back(
          {id, "bulk-" + std::to_string(id),
           Attr(static_cast<double>(id) * 5.0, 0.5)});
    }
    ASSERT_TRUE(db.BulkInsert(std::move(batch)).ok());
  }
  ShardedModDatabase db(&network_, Options());
  ASSERT_TRUE(db.durability_status().ok());
  EXPECT_EQ(db.num_objects(), 20u);
}

TEST_F(ShardedDurabilityTest, CheckpointTruncatesEveryShardLog) {
  ShardedModDatabaseOptions options = Options();
  // Keep one checkpoint so superseded epochs are pruned immediately.
  options.durability.checkpoints_to_keep = 1;
  ShardedModDatabase db(&network_, options);
  ASSERT_TRUE(db.durability_status().ok());
  for (core::ObjectId id = 1; id <= 16; ++id) {
    ASSERT_TRUE(db.Insert(id, "o", Attr(static_cast<double>(id), 1.0)).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  // Every shard's live WAL moved past epoch 1 and is empty again.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    for (const auto& file : fs::directory_iterator(entry.path())) {
      const std::string name = file.path().filename().string();
      if (name.rfind("wal-", 0) == 0) {
        EXPECT_EQ(fs::file_size(file.path()), 0u) << file.path();
      }
    }
  }
}

TEST_F(ShardedDurabilityTest, CheckpointWithoutDurabilityIsRejected) {
  ShardedModDatabaseOptions options;
  options.num_shards = 2;
  options.num_query_threads = 0;
  ShardedModDatabase db(&network_, options);
  EXPECT_TRUE(db.durability_status().ok());  // off = trivially OK
  EXPECT_EQ(db.Checkpoint().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ShardedDurabilityTest, MetricsExposeWalAndRecoveryCounters) {
  {
    ShardedModDatabase db(&network_, Options());
    ASSERT_TRUE(db.durability_status().ok());
    for (core::ObjectId id = 1; id <= 8; ++id) {
      ASSERT_TRUE(db.Insert(id, "o", Attr(static_cast<double>(id), 1.0)).ok());
    }
    EXPECT_EQ(db.metrics().GetCounter("wal.appends")->value(), 8u);
    EXPECT_GT(db.metrics().GetCounter("wal.bytes")->value(), 0u);
    const std::string dump = db.DumpMetrics();
    EXPECT_NE(dump.find("wal.appends"), std::string::npos);
  }
  ShardedModDatabase db(&network_, Options());
  EXPECT_EQ(db.metrics().GetCounter("recovery.records_replayed")->value(),
            8u);
  const std::string dump = db.DumpMetrics();
  EXPECT_NE(dump.find("recovery.records_replayed"), std::string::npos);
}

TEST_F(ShardedDurabilityTest, ParallelRecoveryMatchesInlineRecovery) {
  // Shards recover concurrently on the fan-out pool; the recovered state
  // and the aggregated report must be identical for any pool size. Two
  // copies of the same durable tree are reopened — one inline (0 threads),
  // one on a 3-thread pool — and compared field by field.
  std::string expected;
  {
    ShardedModDatabase db(&network_, Options());
    ASSERT_TRUE(db.durability_status().ok());
    for (core::ObjectId id = 1; id <= 60; ++id) {
      ASSERT_TRUE(
          db.Insert(id, "obj-" + std::to_string(id),
                    Attr(static_cast<double>(id) * 5.0, 1.0))
              .ok());
    }
    for (core::ObjectId id = 1; id <= 60; ++id) {
      ASSERT_TRUE(
          db.ApplyUpdate(Update(id, 1.0, static_cast<double>(id) * 5.0 + 1.0))
              .ok());
    }
    ASSERT_TRUE(db.Erase(11).ok());
    expected = Fingerprint(db);
  }
  const std::string copy = dir_ + "_copy";
  fs::remove_all(copy);
  fs::copy(dir_, copy, fs::copy_options::recursive);

  ShardedModDatabaseOptions inline_options = Options();
  inline_options.num_query_threads = 0;
  ShardedModDatabaseOptions pooled_options = Options();
  pooled_options.durable_dir = copy;
  pooled_options.num_query_threads = 3;

  RecoveryReport inline_report;
  std::string inline_fingerprint;
  {
    ShardedModDatabase db(&network_, inline_options);
    ASSERT_TRUE(db.durability_status().ok())
        << db.durability_status().message();
    inline_report = db.recovery_report();
    inline_fingerprint = Fingerprint(db);
  }
  {
    ShardedModDatabase db(&network_, pooled_options);
    ASSERT_TRUE(db.durability_status().ok())
        << db.durability_status().message();
    EXPECT_EQ(db.num_query_threads(), 3u);
    const RecoveryReport& pooled = db.recovery_report();
    EXPECT_EQ(Fingerprint(db), inline_fingerprint);
    EXPECT_EQ(Fingerprint(db), expected);
    EXPECT_EQ(pooled.recovered, inline_report.recovered);
    EXPECT_EQ(pooled.clean, inline_report.clean);
    EXPECT_EQ(pooled.checkpoint_id, inline_report.checkpoint_id);
    EXPECT_EQ(pooled.objects_restored, inline_report.objects_restored);
    EXPECT_EQ(pooled.wal_records_replayed,
              inline_report.wal_records_replayed);
    EXPECT_EQ(pooled.wal_records_skipped, inline_report.wal_records_skipped);
    EXPECT_EQ(pooled.wal_bytes_truncated, inline_report.wal_bytes_truncated);
    EXPECT_TRUE(inline_report.recovered);
    EXPECT_EQ(inline_report.wal_records_replayed, 121u);
    EXPECT_GT(pooled.duration_ms, 0.0);
  }
  fs::remove_all(copy);
}

TEST_F(ShardedDurabilityTest, CheckpointFailureIsIsolatedToTheFailingShard) {
  // One shard's fresh-epoch WAL refuses to open; the checkpoint must still
  // run on every other shard, the error must name the culprit, and the
  // failing shard's old WAL must stay attached and intact — no record may
  // be lost (a log is never truncated before its replacement snapshot and
  // fresh epoch are in place).
  ShardedModDatabaseOptions options = Options();
  options.durability.checkpoints_to_keep = 1;
  // Epoch-1 (bootstrap) opens succeed everywhere; shard 2's epoch-2 open —
  // the one Checkpoint() needs — fails.
  const util::WritableFileFactory real = util::DefaultWritableFileFactory();
  options.durability.wal.file_factory =
      [real](const std::string& path)
      -> util::Result<std::unique_ptr<util::WritableFile>> {
    if (path.find("shard-0002") != std::string::npos &&
        path.find("wal-00000002") != std::string::npos) {
      return util::Status::Internal("injected: no space for a new epoch");
    }
    return real(path);
  };

  std::string expected;
  {
    ShardedModDatabase db(&network_, options);
    ASSERT_TRUE(db.durability_status().ok());
    for (core::ObjectId id = 1; id <= 24; ++id) {
      ASSERT_TRUE(
          db.Insert(id, "obj-" + std::to_string(id),
                    Attr(static_cast<double>(id) * 10.0, 1.0))
              .ok());
    }
    expected = Fingerprint(db);

    const util::Status status = db.Checkpoint();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInternal);
    EXPECT_NE(status.message().find("shard 2"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("3 checkpointed successfully"),
              std::string::npos)
        << status.message();

    // The failing shard keeps logging into its old epoch: a write to an
    // object it owns still succeeds after the failed checkpoint.
    core::ObjectId on_failed_shard = 0;
    for (core::ObjectId id = 1; id <= 24; ++id) {
      if (db.ShardOf(id) == 2) {
        on_failed_shard = id;
        break;
      }
    }
    ASSERT_NE(on_failed_shard, 0u);
    ASSERT_TRUE(
        db.ApplyUpdate(Update(on_failed_shard, 2.0,
                              static_cast<double>(on_failed_shard) * 10.0 + 3.0))
            .ok());
    expected = Fingerprint(db);
  }

  // The other shards moved to epoch 2; shard 2 still has its epoch-1 log.
  bool shard2_epoch1 = false;
  bool other_epoch2 = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string shard = entry.path().filename().string();
    if (shard.rfind("shard-", 0) != 0) continue;
    for (const auto& file : fs::directory_iterator(entry.path())) {
      const std::string name = file.path().filename().string();
      if (name.rfind("wal-00000001", 0) == 0 &&
          fs::file_size(file.path()) > 0 && shard == "shard-0002") {
        shard2_epoch1 = true;
      }
      if (name.rfind("wal-00000002", 0) == 0 && shard != "shard-0002") {
        other_epoch2 = true;
      }
    }
  }
  EXPECT_TRUE(shard2_epoch1);
  EXPECT_TRUE(other_epoch2);

  // Everything — checkpointed shards and the failed one — recovers.
  ShardedModDatabase db(&network_, Options());
  ASSERT_TRUE(db.durability_status().ok())
      << db.durability_status().message();
  EXPECT_EQ(db.num_objects(), 24u);
  EXPECT_EQ(Fingerprint(db), expected);
}

TEST_F(ShardedDurabilityTest, TornShardLogLosesOnlyThatShardsTail) {
  ShardedModDatabaseOptions options = Options();
  {
    ShardedModDatabase db(&network_, options);
    ASSERT_TRUE(db.durability_status().ok());
    for (core::ObjectId id = 1; id <= 24; ++id) {
      ASSERT_TRUE(
          db.Insert(id, "obj-" + std::to_string(id),
                    Attr(static_cast<double>(id) * 10.0, 1.0))
              .ok());
    }
  }

  // Tear the tail of one shard's log; the other shards are untouched.
  std::string victim_log;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("shard-", 0) != 0) continue;
    for (const auto& file : fs::directory_iterator(entry.path())) {
      const std::string name = file.path().filename().string();
      if (name.rfind("wal-", 0) == 0 && fs::file_size(file.path()) > 0) {
        victim_log = file.path().string();
        break;
      }
    }
    if (!victim_log.empty()) break;
  }
  ASSERT_FALSE(victim_log.empty());
  auto size = util::FileSize(victim_log);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(util::TruncateFile(victim_log, *size - 5).ok());

  ShardedModDatabase db(&network_, options);
  ASSERT_TRUE(db.durability_status().ok());
  EXPECT_TRUE(db.recovery_report().recovered);
  EXPECT_FALSE(db.recovery_report().clean);
  EXPECT_GT(db.recovery_report().wal_bytes_truncated, 0u);
  // Exactly one record (the torn tail of one shard) is missing.
  EXPECT_EQ(db.num_objects(), 23u);
}

// Remediation rebuilds a shard's store from its durable home; with a
// disk-backed index the fresh store must open that shard's own page file.
// Two shards rebuilt over one shared file overwrite each other's pages:
// answers go wrong and later writes fail.
TEST_F(ShardedDurabilityTest, RemediatedShardsKeepTheirOwnPageFiles) {
  ShardedModDatabaseOptions options = Options();
  options.supervisor.auto_remediate = false;
  options.db.index_storage.kind = storage::StorageKind::kDisk;
  options.db.index_storage.path = (fs::path(dir_) / "index.pages").string();
  options.db.index_storage.pool_pages = 4;
  ShardedModDatabase db(&network_, options);
  ASSERT_TRUE(db.durability_status().ok());
  ModDatabase control(&network_);

  util::Rng rng(12);
  for (core::ObjectId id = 1; id <= 300; ++id) {
    const core::PositionAttribute attr =
        Attr(rng.Uniform(0.0, 450.0), rng.Uniform(0.5, 2.0));
    ASSERT_TRUE(db.Insert(id, "r" + std::to_string(id), attr).ok());
    ASSERT_TRUE(control.Insert(id, "r" + std::to_string(id), attr).ok());
  }
  for (const std::size_t shard : {std::size_t{0}, std::size_t{1}}) {
    db.supervisor().ReportFault(shard, util::Status::Internal("operator"));
    ASSERT_TRUE(db.supervisor().TryRecoverShard(shard).ok());
  }

  const auto answers_match = [&](double t) {
    int mismatches = 0;
    for (int q = 0; q < 50; ++q) {
      const double lo = 10.0 * q;
      const geo::Polygon region =
          geo::Polygon::Rectangle(lo, -1.0, lo + 40.0, 1.0);
      const RangeAnswer got = db.QueryRange(region, t);
      const RangeAnswer want = control.QueryRange(region, t);
      if (got.must != want.must || got.may != want.may ||
          got.may_probability != want.may_probability) {
        ++mismatches;
      }
    }
    return mismatches;
  };
  EXPECT_EQ(answers_match(1.0), 0);
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<core::PositionUpdate> updates;
    for (int i = 0; i < 6; ++i) {
      const auto id = static_cast<core::ObjectId>((batch * 6 + i) % 300 + 1);
      updates.push_back(Update(id, 2.0 + batch, rng.Uniform(0.0, 450.0)));
    }
    const UpdateBatchResult result = db.ApplyUpdateBatch(updates);
    EXPECT_TRUE(result.all_ok())
        << "batch " << batch << ": " << result.first_error().message();
    for (const core::PositionUpdate& u : updates) {
      ASSERT_TRUE(control.ApplyUpdate(u).ok());
    }
  }
  EXPECT_EQ(answers_match(60.0), 0);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(db.shard_health(shard), ShardHealth::kHealthy)
        << "shard " << shard;
    EXPECT_TRUE(fs::exists(options.db.index_storage.path + ".shard" +
                           std::to_string(shard)));
  }
  EXPECT_FALSE(fs::exists(options.db.index_storage.path));
}

}  // namespace
}  // namespace modb::db
