#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "db/mod_database.h"
#include "db/sharded_database.h"
#include "db/snapshot.h"
#include "db/subscription_engine.h"
#include "index/route_band_index.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

// What a failed index stage leaves behind. A disk-backed index whose
// 512-byte pages cannot hold a 16-way node is poisoned when it is built, so
// every index stage of every write fails. Each write must then return that
// error with the record map exactly as it was: no record from an insert,
// no attribute, update count or past version changed by an update batch,
// and no subscription event.
class IndexFailureTest : public testing::Test {
 protected:
  IndexFailureTest() {
    main_ = network_.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "main st");
  }

  void SetUp() override {
    const std::string test =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = fs::temp_directory_path() / ("modb_index_failure_" + test);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ModDatabaseOptions Options(bool poisoned_index) const {
    ModDatabaseOptions options;
    options.keep_trajectory = true;
    options.max_trajectory_versions = 2;
    if (poisoned_index) {
      options.index_storage.kind = storage::StorageKind::kDisk;
      options.index_storage.path = (dir_ / "index.pages").string();
      options.index_storage.page_size = 512;
      options.index_storage.pool_pages = 4;
    }
    return options;
  }

  core::PositionAttribute Attr(double s, core::Time t0) const {
    core::PositionAttribute attr;
    attr.start_time = t0;
    attr.route = main_;
    attr.start_route_distance = s;
    attr.start_position = network_.route(main_).PointAt(s);
    attr.speed = 1.0;
    attr.max_speed = 1.5;
    return attr;
  }

  core::PositionUpdate Update(core::ObjectId id, core::Time t,
                              double s) const {
    core::PositionUpdate update;
    update.object = id;
    update.time = t;
    update.route = main_;
    update.route_distance = s;
    update.position = network_.route(main_).PointAt(s);
    update.speed = 1.0;
    return update;
  }

  // Both objects start far from the subscribed region; the batch moves
  // them into it by the subscription's time.
  SubscriptionSpec Spec() const {
    SubscriptionSpec spec;
    spec.region = geo::Polygon::Rectangle(40.0, -5.0, 70.0, 5.0);
    spec.time = 10.0;
    return spec;
  }
  std::vector<core::PositionAttribute> Past() const {
    return {Attr(0.0, 0.0), Attr(1.0, 1.0)};
  }
  // Object 1 twice (the version cap would evict both restored past
  // versions), object 2 once, an unknown id once.
  std::vector<core::PositionUpdate> Batch() const {
    return {Update(1, 5.0, 50.0), Update(2, 5.0, 52.0), Update(99, 5.0, 10.0),
            Update(1, 6.0, 51.0)};
  }

  static util::Status IndexPoison(const ModDatabase& db) {
    return static_cast<const index::RouteBandIndex&>(db.object_index())
        .rtree()
        .storage_status();
  }
  // Every record's attribute, update count and past versions, at full
  // precision.
  static std::string StoreText(const ModDatabase& db) {
    std::ostringstream out;
    EXPECT_TRUE(WriteSnapshot(db, out).ok());
    return out.str();
  }

  geo::RouteNetwork network_;
  geo::RouteId main_ = geo::kInvalidRouteId;
  fs::path dir_;
};

TEST_F(IndexFailureTest, FailedIndexStageLeavesTheStoreAsItWas) {
  ModDatabase db(&network_, Options(/*poisoned_index=*/true));
  SubscriptionEngine engine(&network_);
  db.AttachSubscriptions(&engine);
  ASSERT_TRUE(engine.Subscribe(1, Spec()).ok());
  const util::Status poison = IndexPoison(db);
  ASSERT_FALSE(poison.ok());

  EXPECT_EQ(db.Insert(1, "a", Attr(5.0, 2.0)), poison);
  EXPECT_EQ(
      db.BulkInsert({{2, "b", Attr(8.0, 2.0)}, {3, "c", Attr(9.0, 2.0)}}),
      poison);
  EXPECT_EQ(db.num_objects(), 0u);

  // A bulk-ingest session skips the index, so its records stay; only the
  // rebuild at its end fails.
  ASSERT_TRUE(db.BeginBulkIngest().ok());
  ASSERT_TRUE(db.Insert(1, "a", Attr(5.0, 2.0)).ok());
  ASSERT_TRUE(db.BulkInsert({{2, "b", Attr(8.0, 2.0)}}).ok());
  const util::Status finished = db.FinishBulkIngest();
  ASSERT_FALSE(finished.ok());
  EXPECT_EQ(finished, IndexPoison(db));
  EXPECT_EQ(db.num_objects(), 2u);
  ASSERT_TRUE(db.RestoreTrajectory(1, Past()).ok());

  const std::string before = StoreText(db);
  const std::vector<core::PositionUpdate> batch = Batch();
  const UpdateBatchResult result = db.ApplyUpdateBatch(batch);
  ASSERT_EQ(result.statuses.size(), 4u);
  EXPECT_EQ(result.statuses[0], IndexPoison(db));
  EXPECT_EQ(result.statuses[1], IndexPoison(db));
  EXPECT_EQ(result.statuses[2].code(), util::StatusCode::kNotFound);
  EXPECT_EQ(result.statuses[3], IndexPoison(db));
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(StoreText(db), before);
  for (const core::ObjectId id : {core::ObjectId{1}, core::ObjectId{2}}) {
    const auto record = db.Get(id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ((*record)->update_count, 0u) << "object " << id;
  }
  EXPECT_EQ((*db.Get(1))->past.size(), 2u);
  EXPECT_EQ(db.total_updates(), 0u);
  EXPECT_EQ(engine.num_pending_events(), 0u);

  // An erase does not check the index's answer: the record goes.
  EXPECT_TRUE(db.Erase(1).ok());
  EXPECT_EQ(db.Get(1).status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(db.num_objects(), 1u);
}

TEST_F(IndexFailureTest, SameBatchOnAHealthyIndexCommitsAndNotifies) {
  // The control: with a working index the batch above applies, evicts the
  // restored past versions and reports the objects entering the region,
  // so the unchanged store and the empty event buffer there are the
  // failure's doing.
  ModDatabase db(&network_, Options(/*poisoned_index=*/false));
  SubscriptionEngine engine(&network_);
  db.AttachSubscriptions(&engine);
  ASSERT_TRUE(engine.Subscribe(1, Spec()).ok());
  ASSERT_TRUE(
      db.BulkInsert({{1, "a", Attr(5.0, 2.0)}, {2, "b", Attr(8.0, 2.0)}})
          .ok());
  ASSERT_TRUE(db.RestoreTrajectory(1, Past()).ok());
  (void)engine.TakeEvents();

  const std::vector<core::PositionUpdate> batch = Batch();
  const UpdateBatchResult result = db.ApplyUpdateBatch(batch);
  EXPECT_EQ(result.applied, 3u);
  EXPECT_EQ(result.rejected, 1u);
  const auto record = db.Get(1);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ((*record)->update_count, 2u);
  ASSERT_EQ((*record)->past.size(), 2u);
  EXPECT_EQ((*record)->past.front().start_time, 2.0);
  EXPECT_GT(engine.num_pending_events(), 0u);
}

TEST_F(IndexFailureTest, IndexStorageFaultQuarantinesItsShard) {
  // A poisoned index refuses every write, so the sharded store takes its
  // shard out of service on the first refusal instead of logging and
  // refusing each later write.
  ShardedModDatabaseOptions options;
  options.num_shards = 2;
  options.num_query_threads = 0;
  options.db = Options(/*poisoned_index=*/true);
  options.supervisor.auto_remediate = false;
  ShardedModDatabase db(&network_, options);
  // The same index on its own store, for its poison status.
  const ModDatabase reference(&network_, Options(/*poisoned_index=*/true));

  const std::size_t shard = db.ShardOf(1);
  EXPECT_EQ(db.Insert(1, "a", Attr(5.0, 2.0)), IndexPoison(reference));
  EXPECT_EQ(db.shard_health(shard), ShardHealth::kQuarantined);

  core::ObjectId next = 2;
  while (db.ShardOf(next) != shard) ++next;
  EXPECT_EQ(db.Insert(next, "b", Attr(8.0, 2.0)).code(),
            util::StatusCode::kUnavailable);
  EXPECT_EQ(db.num_objects(), 0u);
}

}  // namespace
}  // namespace modb::db
