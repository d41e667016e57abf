#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "db/mod_database.h"
#include "db/recovery.h"
#include "db/sharded_database.h"
#include "index/route_band_index.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

// End-to-end coverage of `ModDatabaseOptions::index_storage`: a database
// whose range index lives on disk-backed pages behind a small buffer pool
// must answer byte-identically to the default all-in-memory configuration,
// through every write path (Insert/ApplyUpdate/Erase, bulk ingest) and
// across checkpoints, while its page file stays scratch space bounded by
// the index's live pages.

class PagedIndexDbTest : public testing::Test {
 protected:
  PagedIndexDbTest() {
    main_ = network_.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "main st");
    cross_ = network_.AddStraightRoute({50.0, -50.0}, {50.0, 50.0}, "cross");
  }

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("modb_paged_db_" + std::string(testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ModDatabaseOptions DiskOptions(const std::string& file,
                                 std::size_t pool_pages = 16) const {
    ModDatabaseOptions options;
    options.index_storage.kind = storage::StorageKind::kDisk;
    options.index_storage.path = (dir_ / file).string();
    options.index_storage.pool_pages = pool_pages;
    return options;
  }

  core::PositionAttribute Attr(geo::RouteId route, double s, double v) const {
    core::PositionAttribute attr;
    attr.start_time = 0.0;
    attr.route = route;
    attr.start_route_distance = s;
    attr.start_position = network_.route(route).PointAt(s);
    attr.direction = core::TravelDirection::kForward;
    attr.speed = v;
    return attr;
  }

  core::PositionUpdate Update(core::ObjectId id, double time, double s) const {
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
  geo::RouteId cross_ = geo::kInvalidRouteId;
  fs::path dir_;
};

void ExpectSameAnswer(const RangeAnswer& memory, const RangeAnswer& paged) {
  EXPECT_EQ(memory.must, paged.must);
  EXPECT_EQ(memory.may, paged.may);
  EXPECT_EQ(memory.may_probability, paged.may_probability);
}

TEST_F(PagedIndexDbTest, DiskBackedIndexMatchesMemoryBackedAnswers) {
  ModDatabase memory_db(&network_);
  ModDatabase paged_db(&network_, DiskOptions("rtree.pages", /*pool_pages=*/8));

  util::Rng rng(11);
  for (core::ObjectId id = 1; id <= 120; ++id) {
    const auto route = (id % 3 == 0) ? cross_ : main_;
    const double s = rng.Uniform(0.0, 99.0);
    const double v = rng.Uniform(0.5, 3.0);
    ASSERT_TRUE(
        memory_db.Insert(id, "obj" + std::to_string(id), Attr(route, s, v))
            .ok());
    ASSERT_TRUE(
        paged_db.Insert(id, "obj" + std::to_string(id), Attr(route, s, v))
            .ok());
  }
  for (core::ObjectId id = 1; id <= 120; id += 4) {
    const auto update = Update(id, 5.0, rng.Uniform(0.0, 99.0));
    ASSERT_TRUE(memory_db.ApplyUpdate(update).ok());
    ASSERT_TRUE(paged_db.ApplyUpdate(update).ok());
  }
  for (core::ObjectId id = 7; id <= 120; id += 17) {
    ASSERT_TRUE(memory_db.Erase(id).ok());
    ASSERT_TRUE(paged_db.Erase(id).ok());
  }

  for (double t : {0.0, 2.5, 7.0, 20.0}) {
    for (const auto& region :
         {geo::Polygon::Rectangle(0.0, -5.0, 40.0, 5.0),
          geo::Polygon::Rectangle(30.0, -20.0, 70.0, 20.0),
          geo::Polygon::Rectangle(45.0, -50.0, 55.0, 50.0)}) {
      ExpectSameAnswer(memory_db.QueryRange(region, t),
                       paged_db.QueryRange(region, t));
    }
  }
}

TEST_F(PagedIndexDbTest, IndexPageTrafficSurfacesInMetrics) {
  util::MetricsRegistry registry;  // outlives the store
  ModDatabase db(&network_, DiskOptions("rtree.pages", /*pool_pages=*/4));
  db.SetMetrics(&registry, "db.");
  util::Rng rng(3);
  for (core::ObjectId id = 1; id <= 200; ++id) {
    ASSERT_TRUE(db.Insert(id, "m" + std::to_string(id),
                          Attr(main_, rng.Uniform(0.0, 99.0), 1.0))
                    .ok());
  }
  (void)db.QueryRange(geo::Polygon::Rectangle(0.0, -5.0, 100.0, 5.0), 1.0);
  // A 4-frame pool under a 200-object tree cannot avoid misses/evictions.
  EXPECT_GT(registry.GetCounter("db.index.pages.misses")->value(), 0u);
  EXPECT_GT(registry.GetCounter("db.index.pages.evictions")->value(), 0u);
  EXPECT_GT(registry.GetCounter("db.index.pages.writes")->value(), 0u);
}

TEST_F(PagedIndexDbTest, BulkIngestRebuildsDiskIndexInPlace) {
  // FinishBulkIngest tears the old index down and rebuilds it over the SAME
  // page file; the rebuild must not trip over the previous generation.
  ModDatabase db(&network_, DiskOptions("rtree.pages", /*pool_pages=*/8));
  ASSERT_TRUE(db.BeginBulkIngest().ok());
  util::Rng rng(29);
  for (core::ObjectId id = 1; id <= 150; ++id) {
    ASSERT_TRUE(db.Insert(id, "b" + std::to_string(id),
                          Attr(main_, rng.Uniform(0.0, 99.0), 1.0))
                    .ok());
  }
  ASSERT_TRUE(db.FinishBulkIngest().ok());

  ModDatabase plain(&network_);
  util::Rng rng2(29);
  for (core::ObjectId id = 1; id <= 150; ++id) {
    ASSERT_TRUE(plain.Insert(id, "b" + std::to_string(id),
                             Attr(main_, rng2.Uniform(0.0, 99.0), 1.0))
                    .ok());
  }
  ExpectSameAnswer(
      plain.QueryRange(geo::Polygon::Rectangle(20.0, -2.0, 80.0, 2.0), 1.0),
      db.QueryRange(geo::Polygon::Rectangle(20.0, -2.0, 80.0, 2.0), 1.0));
  // Post-rebuild writes land in the fresh index generation.
  ASSERT_TRUE(db.Insert(999, "late", Attr(main_, 50.0, 1.0)).ok());
  const auto answer =
      db.QueryRange(geo::Polygon::Rectangle(49.0, -1.0, 51.0, 1.0), 0.0);
  EXPECT_NE(std::find(answer.must.begin(), answer.must.end(), 999),
            answer.must.end());
}

TEST_F(PagedIndexDbTest, CheckpointLeavesDiskIndexServing) {
  // A checkpoint on a store with a disk-backed index leaves the store
  // fully usable afterwards.
  ModDatabase db(&network_, DiskOptions("rtree.pages", /*pool_pages=*/8));
  ASSERT_TRUE(db.Insert(1, "one", Attr(main_, 10.0, 1.0)).ok());
  auto manager = DurabilityManager::Open(&db, (dir_ / "store").string());
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  for (core::ObjectId id = 2; id <= 80; ++id) {
    ASSERT_TRUE(
        db.Insert(id, "c" + std::to_string(id), Attr(main_, 1.0 + id, 1.0))
            .ok());
  }
  ASSERT_TRUE((*manager)->Checkpoint().ok());
  ASSERT_TRUE(db.ApplyUpdate(Update(1, 4.0, 30.0)).ok());
  const auto answer =
      db.QueryRange(geo::Polygon::Rectangle(29.0, -1.0, 31.0, 1.0), 4.0);
  EXPECT_NE(std::find(answer.must.begin(), answer.must.end(), 1),
            answer.must.end());
}

// The index is derived state: a checkpoint writes none of its pages, and
// an update's write-backs overwrite their pages' slots. Through updates
// and checkpoints the page file stays within page size x the most pages
// the index ever held.
TEST_F(PagedIndexDbTest, PageFileStaysWithinPeakLivePagesAcrossCheckpoints) {
  const ModDatabaseOptions options = DiskOptions("rtree.pages", 8);
  ModDatabase db(&network_, options);
  auto manager = DurabilityManager::Open(&db, (dir_ / "store").string());
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  // An empty store recovers nothing, so its index is never rebuilt or
  // reset here: allocations minus frees is its live page count.
  const index::RTree3& tree =
      static_cast<const index::RouteBandIndex&>(db.object_index()).rtree();
  const auto live_pages = [&tree] {
    const storage::StorageStats io = tree.storage_stats();
    return io.page_allocs - io.page_frees;
  };
  std::uint64_t peak = live_pages();
  util::Rng rng(41);
  constexpr core::ObjectId kObjects = 400;
  for (core::ObjectId id = 1; id <= kObjects; ++id) {
    ASSERT_TRUE(db.Insert(id, "c" + std::to_string(id),
                          Attr(main_, rng.Uniform(0.0, 99.0), 1.0))
                    .ok());
    peak = std::max(peak, live_pages());
  }
  for (int round = 1; round <= 20; ++round) {
    for (int i = 0; i < 100; ++i) {
      const auto id = static_cast<core::ObjectId>(rng.UniformInt(1, kObjects));
      ASSERT_TRUE(
          db.ApplyUpdate(Update(id, round, rng.Uniform(0.0, 99.0))).ok());
      peak = std::max(peak, live_pages());
    }
    const std::uint64_t writes = tree.storage_stats().page_writes;
    ASSERT_TRUE((*manager)->Checkpoint().ok());
    EXPECT_EQ(tree.storage_stats().page_writes, writes)
        << "checkpoint " << round << " wrote index pages";
  }
  EXPECT_GT(tree.storage_stats().page_writes, 2000u);
  const auto size = util::FileSize(options.index_storage.path);
  ASSERT_TRUE(size.ok());
  EXPECT_LE(*size, peak * options.index_storage.page_size)
      << "peak live pages " << peak;
}

// Each rebuild replaces the index; the replaced tree's frames leave the
// shared gauge with it, so the gauge reads the live pool's frames.
TEST_F(PagedIndexDbTest, FramesGaugeMatchesLivePoolAcrossRebuilds) {
  util::MetricsRegistry registry;  // outlives the store
  ModDatabase db(&network_, DiskOptions("rtree.pages", /*pool_pages=*/64));
  db.SetMetrics(&registry, "db.");
  util::Rng rng(7);
  for (core::ObjectId id = 1; id <= 500; ++id) {
    ASSERT_TRUE(db.Insert(id, "g" + std::to_string(id),
                          Attr(main_, rng.Uniform(0.0, 99.0), 1.0))
                    .ok());
  }
  const util::Gauge* frames = registry.GetGauge("db.index.pages.frames");
  for (int rebuild = 0; rebuild < 3; ++rebuild) {
    ASSERT_TRUE(db.BeginBulkIngest().ok());
    ASSERT_TRUE(db.FinishBulkIngest().ok());
    const auto& tree =
        static_cast<const index::RouteBandIndex&>(db.object_index()).rtree();
    EXPECT_GT(tree.pool_frames(), 0u);
    EXPECT_EQ(frames->value(), static_cast<std::int64_t>(tree.pool_frames()))
        << "after rebuild " << rebuild;
  }
}

TEST_F(PagedIndexDbTest, ShardedDatabaseUsesOnePageFilePerShard) {
  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.db = DiskOptions("shards.pages", /*pool_pages=*/8);
  ShardedModDatabase db(&network_, options);
  util::Rng rng(23);
  for (core::ObjectId id = 1; id <= 100; ++id) {
    ASSERT_TRUE(db.Insert(id, "s" + std::to_string(id),
                          Attr(main_, rng.Uniform(0.0, 99.0), 1.0))
                    .ok());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fs::exists(dir_ / ("shards.pages.shard" + std::to_string(i))))
        << "shard " << i;
  }
  const auto answer =
      db.QueryRange(geo::Polygon::Rectangle(0.0, -5.0, 100.0, 5.0), 0.5);
  EXPECT_EQ(answer.must.size() + answer.may.size(), 100u);
}

}  // namespace
}  // namespace modb::db
