// Equivalence and durability properties of the staged batch write path:
// ApplyUpdateBatch must be observationally identical to the same updates
// applied one by one through ApplyUpdate — same final records, same query
// answers on every index kind, same accept/reject decisions, and the same
// recovered state after a crash + WAL replay.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "db/mod_database.h"
#include "db/recovery.h"
#include "db/wal.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

/// Order-independent, bit-exact state fingerprint (attribute, history and
/// update counters — the batch path must reproduce all of them).
std::string Signature(const ModDatabase& db) {
  std::map<core::ObjectId, std::string> rows;
  db.ForEachRecord([&](const MovingObjectRecord& record) {
    std::ostringstream row;
    row << std::hexfloat;
    const auto put_attr = [&row](const core::PositionAttribute& a) {
      row << ' ' << a.start_time << ' ' << a.route << ' '
          << a.start_route_distance << ' ' << a.start_position.x << ' '
          << a.start_position.y << ' ' << static_cast<int>(a.direction) << ' '
          << a.speed;
    };
    row << record.label << " updates=" << record.update_count;
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

class BatchIngestTest : public testing::Test {
 protected:
  BatchIngestTest() {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {200.0, 0.0}, "main-st");
    avenue_ = network_.AddStraightRoute({50.0, -100.0}, {50.0, 100.0}, "ave");
  }

  core::PositionAttribute Attr(double start, double speed) const {
    core::PositionAttribute attr;
    attr.start_time = 0.0;
    attr.route = street_;
    attr.start_route_distance = start;
    attr.start_position = {start, 0.0};
    attr.speed = speed;
    attr.max_speed = 2.5;
    return attr;
  }

  core::PositionUpdate Update(core::ObjectId id, core::Time t, double s,
                              double speed,
                              geo::RouteId route = geo::kInvalidRouteId) const {
    core::PositionUpdate u;
    u.object = id;
    u.time = t;
    u.route = route == geo::kInvalidRouteId ? street_ : route;
    u.route_distance = s;
    u.position = u.route == street_ ? geo::Point2{s, 0.0}
                                    : geo::Point2{50.0, s - 100.0};
    u.direction = core::TravelDirection::kForward;
    u.speed = speed;
    return u;
  }

  void Seed(ModDatabase& db, std::size_t n) const {
    for (core::ObjectId id = 1; id <= n; ++id) {
      ASSERT_TRUE(
          db.Insert(id, "obj-" + std::to_string(id),
                    Attr(5.0 * static_cast<double>(id), 1.0))
              .ok());
    }
  }

  /// A scripted stream exercising the batch path's edge cases: several
  /// objects, repeated objects inside one batch window, a time-regressing
  /// record, an unknown object and an unknown route.
  std::vector<core::PositionUpdate> Script() const {
    std::vector<core::PositionUpdate> updates;
    for (int round = 1; round <= 6; ++round) {
      const double t = static_cast<double>(round) * 2.0;
      for (core::ObjectId id = 1; id <= 8; ++id) {
        updates.push_back(
            Update(id, t, 10.0 + static_cast<double>(id) + t, 1.2));
      }
      // Same object twice in the same window (later one supersedes).
      updates.push_back(Update(3, t + 0.5, 60.0 + t, 0.8));
      // Cross-route move.
      updates.push_back(Update(5, t + 0.6, 80.0 + t, 1.1, avenue_));
    }
    // Rejections: unknown object, regressing time, unknown route.
    updates.push_back(Update(99, 100.0, 10.0, 1.0));
    core::PositionUpdate regress = Update(2, 1.0, 11.0, 1.0);
    updates.push_back(regress);
    core::PositionUpdate bad_route = Update(4, 100.0, 1.0, 1.0);
    bad_route.route = 77;
    updates.push_back(bad_route);
    return updates;
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  geo::RouteId avenue_ = geo::kInvalidRouteId;
};

TEST_F(BatchIngestTest, BatchMatchesSequentialOnEveryIndexKind) {
  for (const IndexKind kind : {IndexKind::kLinearScan,
                               IndexKind::kTimeSpaceRTree,
                               IndexKind::kRouteBand}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                    std::size_t{7}, std::size_t{1000}}) {
      ModDatabaseOptions options;
      options.index_kind = kind;
      options.keep_trajectory = true;
      options.max_trajectory_versions = 3;  // exercise history eviction
      ModDatabase sequential(&network_, options);
      ModDatabase batched(&network_, options);
      Seed(sequential, 8);
      Seed(batched, 8);

      const std::vector<core::PositionUpdate> script = Script();
      std::vector<util::Status> seq_statuses;
      seq_statuses.reserve(script.size());
      for (const core::PositionUpdate& u : script) {
        seq_statuses.push_back(sequential.ApplyUpdate(u));
      }
      std::vector<util::Status> batch_statuses;
      for (std::size_t i = 0; i < script.size(); i += batch) {
        const std::size_t n = std::min(batch, script.size() - i);
        UpdateBatchResult r = batched.ApplyUpdateBatch(
            std::span<const core::PositionUpdate>(script.data() + i, n));
        ASSERT_EQ(r.statuses.size(), n);
        EXPECT_EQ(r.applied + r.rejected, n);
        for (util::Status& s : r.statuses) {
          batch_statuses.push_back(std::move(s));
        }
      }

      ASSERT_EQ(batch_statuses.size(), seq_statuses.size());
      for (std::size_t i = 0; i < seq_statuses.size(); ++i) {
        EXPECT_EQ(batch_statuses[i].code(), seq_statuses[i].code())
            << "record " << i << " batch=" << batch;
      }
      EXPECT_EQ(Signature(batched), Signature(sequential))
          << "kind=" << static_cast<int>(kind) << " batch=" << batch;

      // Query answers must agree everywhere, not just the raw records.
      for (const double t : {2.0, 5.0, 9.0, 12.5}) {
        const geo::Polygon region =
            geo::Polygon::Rectangle(0.0, -120.0, 200.0, 120.0);
        const RangeAnswer a = sequential.QueryRange(region, t);
        const RangeAnswer b = batched.QueryRange(region, t);
        EXPECT_EQ(a.must, b.must) << "t=" << t;
        EXPECT_EQ(a.may, b.may) << "t=" << t;
        const geo::Polygon narrow =
            geo::Polygon::Rectangle(30.0, -5.0, 90.0, 5.0);
        const RangeAnswer c = sequential.QueryRange(narrow, t);
        const RangeAnswer d = batched.QueryRange(narrow, t);
        EXPECT_EQ(c.must, d.must) << "t=" << t;
        EXPECT_EQ(c.may, d.may) << "t=" << t;
      }
    }
  }
}

TEST_F(BatchIngestTest, BatchLocalValidationSeesEarlierRecordsOfTheBatch) {
  ModDatabase db(&network_);
  Seed(db, 1);
  // Second record regresses against the *first record of the batch*, not
  // the stored attribute — sequential application would reject it, so the
  // batch must too.
  const std::vector<core::PositionUpdate> batch = {
      Update(1, 10.0, 20.0, 1.0), Update(1, 4.0, 25.0, 1.0),
      Update(1, 12.0, 30.0, 1.0)};
  const UpdateBatchResult r = db.ApplyUpdateBatch(batch);
  EXPECT_TRUE(r.statuses[0].ok());
  EXPECT_EQ(r.statuses[1].code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(r.statuses[2].ok());
  EXPECT_EQ(r.applied, 2u);
  EXPECT_EQ(r.rejected, 1u);
  const auto rec = db.Get(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->attr.start_time, 12.0);
  EXPECT_EQ((*rec)->update_count, 2u);
}

TEST_F(BatchIngestTest, EmptyAndSingletonBatches) {
  ModDatabase db(&network_);
  Seed(db, 1);
  const UpdateBatchResult empty = db.ApplyUpdateBatch({});
  EXPECT_TRUE(empty.all_ok());
  EXPECT_EQ(empty.applied, 0u);
  const std::vector<core::PositionUpdate> one = {Update(1, 3.0, 20.0, 1.0)};
  const UpdateBatchResult r = db.ApplyUpdateBatch(one);
  EXPECT_TRUE(r.all_ok());
  EXPECT_EQ(r.applied, 1u);
  EXPECT_TRUE(r.first_error().ok());
}

TEST_F(BatchIngestTest, RejectionsAreCountedAndDoNotBlockTheRest) {
  util::MetricsRegistry registry;
  ModDatabase db(&network_);
  db.SetMetrics(&registry, "mod.");
  Seed(db, 2);
  const std::vector<core::PositionUpdate> batch = {
      Update(1, 2.0, 20.0, 1.0), Update(99, 2.0, 20.0, 1.0),
      Update(2, 2.0, 30.0, 1.0)};
  const UpdateBatchResult r = db.ApplyUpdateBatch(batch);
  EXPECT_EQ(r.applied, 2u);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_EQ(r.statuses[1].code(), util::StatusCode::kNotFound);
  EXPECT_FALSE(r.all_ok());
  EXPECT_EQ(r.first_error().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(registry.GetCounter("mod.ingest.validate_reject")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("mod.updates_applied")->value(), 2u);
  EXPECT_EQ(registry.GetLatency("mod.ingest.batch_size")->count(), 1u);
}

class BatchIngestDurabilityTest : public BatchIngestTest {
 protected:
  void SetUp() override {
    dir_ = (fs::path(testing::TempDir()) /
            ("batch_ingest_" +
             std::string(testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(BatchIngestDurabilityTest, BatchedUpdatesSurviveCrashAndReplay) {
  std::string live_signature;
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir_);
    ASSERT_TRUE(manager.ok()) << manager.status().message();
    Seed(db, 8);
    const std::vector<core::PositionUpdate> script = Script();
    for (std::size_t i = 0; i < script.size(); i += 5) {
      const std::size_t n = std::min<std::size_t>(5, script.size() - i);
      db.ApplyUpdateBatch(
          std::span<const core::PositionUpdate>(script.data() + i, n));
    }
    live_signature = Signature(db);
    // No Checkpoint(), no clean shutdown: recovery must come from the
    // bootstrap checkpoint plus the batched WAL records alone.
  }
  ModDatabase recovered(&network_);
  auto manager = DurabilityManager::Open(&recovered, dir_);
  ASSERT_TRUE(manager.ok()) << manager.status().message();
  EXPECT_TRUE((*manager)->recovery_report().recovered);
  EXPECT_EQ(Signature(recovered), live_signature);
}

TEST_F(BatchIngestDurabilityTest, BulkInsertLogsOneBatchedRecord) {
  util::MetricsRegistry registry;
  WalWriterOptions options;
  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  (*writer)->SetMetrics(&registry);

  ModDatabase db(&network_);
  db.AttachWal(writer->get());
  std::vector<ModDatabase::BulkObject> objects;
  for (core::ObjectId id = 1; id <= 50; ++id) {
    objects.push_back({id, "bulk-" + std::to_string(id),
                       Attr(static_cast<double>(id), 1.0)});
  }
  ASSERT_TRUE(db.BulkInsert(std::move(objects)).ok());
  // One frame for the whole call — the N-frame amplification is gone.
  EXPECT_EQ(registry.GetCounter("wal.appends")->value(), 1u);
  ASSERT_TRUE((*writer)->Close().ok());

  // The frame decodes as one batch of 50 nested inserts and replays to the
  // same fleet.
  ModDatabase replayed(&network_);
  std::size_t top_level = 0;
  auto stats = ReplayWal(dir_, 1, [&](const WalRecord& record) {
    ++top_level;
    EXPECT_EQ(record.type, WalRecordType::kUpdateBatch);
    for (const WalRecord& sub : record.batch) {
      EXPECT_EQ(sub.type, WalRecordType::kInsert);
      EXPECT_TRUE(replayed.Insert(sub.id, sub.label, sub.attr).ok());
    }
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->clean);
  EXPECT_EQ(top_level, 1u);
  EXPECT_EQ(replayed.num_objects(), 50u);
  EXPECT_EQ(Signature(replayed), Signature(db));
}

// A batch that accepts one record logs it exactly as `ApplyUpdate` does:
// one plain kUpdate frame, byte for byte, not a batch of one.
TEST_F(BatchIngestDurabilityTest, SingleAcceptedRecordLogsOnePlainUpdate) {
  const auto log_bytes = [](const fs::path& dir) {
    std::string bytes;
    std::size_t segments = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
      ++segments;
    }
    EXPECT_EQ(segments, 1u);
    return bytes;
  };
  const core::PositionUpdate accepted = Update(1, 2.0, 20.0, 1.0);
  core::PositionUpdate bad_route = Update(2, 2.0, 30.0, 1.0);
  bad_route.route = 77;
  const std::vector<core::PositionUpdate> batch = {
      Update(99, 2.0, 10.0, 1.0), accepted, bad_route};

  const fs::path batched_dir = fs::path(dir_) / "batched";
  const fs::path single_dir = fs::path(dir_) / "single";
  util::MetricsRegistry registry;
  {
    auto writer = WalWriter::Open(batched_dir.string(), 1, WalWriterOptions{});
    ASSERT_TRUE(writer.ok());
    (*writer)->SetMetrics(&registry);
    ModDatabase db(&network_);
    Seed(db, 2);
    db.AttachWal(writer->get());
    const UpdateBatchResult r = db.ApplyUpdateBatch(batch);
    EXPECT_EQ(r.applied, 1u);
    EXPECT_EQ(r.rejected, 2u);
    ASSERT_TRUE((*writer)->Close().ok());
  }
  {
    auto writer = WalWriter::Open(single_dir.string(), 1, WalWriterOptions{});
    ASSERT_TRUE(writer.ok());
    ModDatabase db(&network_);
    Seed(db, 2);
    db.AttachWal(writer->get());
    ASSERT_TRUE(db.ApplyUpdate(accepted).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  EXPECT_EQ(registry.GetCounter("wal.appends")->value(), 1u);
  EXPECT_EQ(log_bytes(batched_dir), log_bytes(single_dir));

  std::vector<WalRecordType> types;
  auto stats = ReplayWal(batched_dir.string(), 1, [&](const WalRecord& record) {
    types.push_back(record.type);
    EXPECT_EQ(record.update.object, accepted.object);
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(types, std::vector<WalRecordType>{WalRecordType::kUpdate});
}

TEST_F(BatchIngestDurabilityTest, MidBatchWalFailureFailsWholeBatchCleanly) {
  util::MetricsRegistry registry;
  util::FaultPlan plan;
  plan.crash_after_bytes = 512;  // torn write partway into the stream
  util::FaultInjector injector(plan);
  WalWriterOptions options;
  options.file_factory = injector.factory();
  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());

  ModDatabase db(&network_);
  db.SetMetrics(&registry, "mod.");
  Seed(db, 4);  // in-memory only; WAL attached after the seed
  db.AttachWal(writer->get());
  const std::string before = Signature(db);

  // Push batches until the planned crash fires inside an append.
  std::vector<core::PositionUpdate> batch;
  UpdateBatchResult failed;
  double t = 1.0;
  std::string applied_signature = before;
  bool crashed = false;
  for (int round = 0; round < 64 && !crashed; ++round, t += 1.0) {
    batch.clear();
    for (core::ObjectId id = 1; id <= 4; ++id) {
      batch.push_back(Update(id, t, 20.0 + t, 1.0));
    }
    const UpdateBatchResult r = db.ApplyUpdateBatch(batch);
    if (r.all_ok()) {
      applied_signature = Signature(db);
      continue;
    }
    crashed = true;
    failed = r;
  }
  ASSERT_TRUE(crashed);
  // All-or-nothing: the failed batch left no memory effect at all.
  EXPECT_EQ(failed.applied, 0u);
  for (const util::Status& s : failed.statuses) EXPECT_FALSE(s.ok());
  EXPECT_EQ(Signature(db), applied_signature);
  EXPECT_GE(registry.GetCounter("mod.ingest.wal_fail")->value(), 1u);
  // The writer is poisoned: later writes — batched or not — keep failing.
  EXPECT_FALSE(db.ApplyUpdate(Update(1, t + 1.0, 30.0, 1.0)).ok());
  EXPECT_EQ(Signature(db), applied_signature);

  // Replay recovers exactly the fully-appended prefix; the torn batch
  // frame is truncated away, never half-applied.
  ModDatabase recovered(&network_);
  Seed(recovered, 4);
  auto stats = ReplayWal(dir_, 1, [&](const WalRecord& record) {
    EXPECT_EQ(record.type, WalRecordType::kUpdateBatch);
    std::vector<core::PositionUpdate> updates;
    for (const WalRecord& sub : record.batch) updates.push_back(sub.update);
    return recovered.ApplyUpdateBatch(updates).first_error();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Signature(recovered), applied_signature);
}

}  // namespace
}  // namespace modb::db
