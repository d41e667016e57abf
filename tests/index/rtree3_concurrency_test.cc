// Reader/writer stress for the resident R*-tree's copy-on-write / epoch
// read scheme, and for the sharded layer's lock-free probe path built on
// it. The `Concurrent` fixture names put this file inside the
// ThreadSanitizer ctest gate (CMakePresets `Sharded|Concurrent|...`), which
// is where these tests earn their keep: TSan verifies the epoch scheme's
// happens-before edges, the asserts verify MUST-soundness under races.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "db/sharded_database.h"
#include "geo/box.h"
#include "index/rtree3.h"
#include "util/rng.h"

namespace modb::index {
namespace {

using geo::Box3;

Box3 BoxAt(double x, double y, double t, double extent) {
  return Box3(x, y, t, x + extent, y + extent, t + extent);
}

// Stable population the writer never touches plus a churn population the
// writer replaces in 400 write batches while 8 readers search the whole
// space. `boxes_per_value` > 1 removes each churn object's boxes with one
// `RemoveBatch` descent instead of one `Remove` per box.
void RunReadersUnderWriter(std::size_t boxes_per_value) {
  RTree3 tree;
  ASSERT_TRUE(tree.concurrent_reads());

  // Stable population the writer never touches: every concurrent search
  // that covers the whole space must see all of it, in every snapshot.
  constexpr std::uint64_t kStable = 512;
  util::Rng rng(11);
  for (std::uint64_t v = 0; v < kStable; ++v) {
    tree.Insert(BoxAt(rng.Uniform(0.0, 90.0), rng.Uniform(0.0, 90.0),
                      rng.Uniform(0.0, 90.0), 5.0),
                v);
  }

  // Churn population: the writer replaces these in batches, so readers see
  // each replacement atomically — either the old churn boxes or the new
  // ones, never a half-applied batch.
  constexpr std::uint64_t kChurnBase = 1'000'000;
  constexpr std::uint64_t kChurnCount = 64;
  const std::uint64_t churn_values = kChurnCount / boxes_per_value;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::thread writer([&] {
    util::Rng wrng(12);
    std::vector<std::vector<Box3>> churn(churn_values);
    for (int round = 0; round < 400; ++round) {
      RTree3::BatchScope batch(tree);
      for (std::uint64_t i = 0; i < churn_values; ++i) {
        if (boxes_per_value == 1) {
          for (const Box3& box : churn[i]) {
            ASSERT_TRUE(tree.Remove(box, kChurnBase + i));
          }
        } else {
          ASSERT_EQ(tree.RemoveBatch(churn[i], kChurnBase + i),
                    churn[i].size());
        }
        churn[i].clear();
        for (std::size_t b = 0; b < boxes_per_value; ++b) {
          const Box3 box = BoxAt(wrng.Uniform(0.0, 90.0),
                                 wrng.Uniform(0.0, 90.0),
                                 wrng.Uniform(0.0, 90.0), 5.0);
          tree.Insert(box, kChurnBase + i);
          churn[i].push_back(box);
        }
      }
    }
    stop.store(true, std::memory_order_release);
  });

  const Box3 everything(-1.0, -1.0, -1.0, 100.0, 100.0, 100.0);
  std::vector<std::thread> readers;
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::uint64_t stable_seen = 0;
        std::uint64_t churn_seen = 0;
        tree.Search(everything, [&](const Box3&, std::uint64_t value) {
          if (value < kStable) {
            ++stable_seen;
          } else {
            ++churn_seen;
          }
        });
        // Every snapshot holds the full stable population, and the churn
        // batch is atomic: a snapshot holds exactly 0 or kChurnCount churn
        // entries (0 only before the writer's first publication).
        EXPECT_EQ(stable_seen, kStable);
        EXPECT_TRUE(churn_seen == 0 || churn_seen == kChurnCount)
            << "torn batch: " << churn_seen;
        // Concurrent metric reads are part of the contract under test.
        (void)tree.size();
        (void)tree.splits();
        (void)tree.pool_stats();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  // With readers quiesced, the next publication reclaims every retired
  // node: the grace period of each retirement is over, so the epoch scheme
  // must not leak.
  tree.Insert(BoxAt(1.0, 1.0, 1.0, 1.0), kChurnBase + kChurnCount);
  ASSERT_TRUE(tree.Remove(BoxAt(1.0, 1.0, 1.0, 1.0), kChurnBase + kChurnCount));
  EXPECT_EQ(tree.retired_pages(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(ConcurrentRTreeReadsTest, ReadersNeverMissStableEntriesUnderWriter) {
  RunReadersUnderWriter(/*boxes_per_value=*/1);
}

TEST(ConcurrentRTreeReadsTest, ReadersNeverMissStableEntriesUnderBatchRemoval) {
  RunReadersUnderWriter(/*boxes_per_value=*/8);
}

TEST(ConcurrentRTreeReadsTest, BulkLoadPublishesAtomically) {
  RTree3 tree;
  ASSERT_TRUE(tree.concurrent_reads());
  constexpr std::size_t kPerLoad = 300;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    util::Rng rng(21);
    for (int round = 0; round < 60; ++round) {
      std::vector<std::pair<Box3, RTree3::Value>> entries;
      for (std::size_t i = 0; i < kPerLoad; ++i) {
        entries.emplace_back(BoxAt(rng.Uniform(0.0, 90.0),
                                   rng.Uniform(0.0, 90.0),
                                   rng.Uniform(0.0, 90.0), 4.0),
                             static_cast<RTree3::Value>(i));
      }
      tree.BulkLoad(std::move(entries));
    }
    stop.store(true, std::memory_order_release);
  });

  const Box3 everything(-1.0, -1.0, -1.0, 100.0, 100.0, 100.0);
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t n = tree.SearchValues(everything).size();
        // A snapshot is a whole bulk load or the initial empty tree.
        EXPECT_TRUE(n == 0 || n == kPerLoad) << "torn bulk load: " << n;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

}  // namespace
}  // namespace modb::index

namespace modb::db {
namespace {

// Lock-free probe path of the sharded store under a concurrent writer:
// range and interval answers must stay MUST-sound for objects that are not
// being mutated, and nearest answers well-ordered, while updates stream
// into every shard.
TEST(ShardedConcurrentLockFreeProbeTest, RangeQueriesSoundUnderWrites) {
  geo::RouteNetwork network;
  const geo::RouteId street =
      network.AddStraightRoute({0.0, 0.0}, {400.0, 0.0}, "street");

  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 0;  // probe on the caller, races come from us
  ShardedModDatabase db(&network, options);

  auto attr_at = [&](double s, double v) {
    core::PositionAttribute attr;
    attr.route = street;
    attr.start_route_distance = s;
    attr.start_position = network.route(street).PointAt(s);
    attr.speed = v;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  };

  // Stationary fleet inside the query region: every answer must contain
  // all of them in MUST, whatever the concurrent writers are doing to the
  // moving fleet.
  constexpr core::ObjectId kStationary = 64;
  for (core::ObjectId id = 0; id < kStationary; ++id) {
    ASSERT_TRUE(db.Insert(id, "s", attr_at(100.0 + id, 0.0)).ok());
  }
  constexpr core::ObjectId kMovingBase = 1000;
  constexpr core::ObjectId kMoving = 64;
  for (core::ObjectId id = 0; id < kMoving; ++id) {
    ASSERT_TRUE(
        db.Insert(kMovingBase + id, "m", attr_at(10.0 + id, 0.5)).ok());
  }

  // x in [80, 320]: the whole stationary fleet is inside, the moving
  // fleet crosses the boundary as the writer streams updates.
  const geo::Polygon region = geo::Polygon::CenteredRectangle(
      {200.0, 0.0}, 120.0, 40.0);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    util::Rng rng(31);
    for (int round = 0; round < 150; ++round) {
      core::PositionUpdate update;
      update.object = kMovingBase + (round % kMoving);
      update.time = 1.0 + round * 0.01;
      update.route = street;
      update.route_distance = rng.Uniform(10.0, 390.0);
      update.position = network.route(street).PointAt(update.route_distance);
      update.direction = core::TravelDirection::kForward;
      update.speed = rng.Uniform(0.1, 1.0);
      ASSERT_TRUE(db.ApplyUpdate(update).ok());
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const RangeAnswer answer = db.QueryRange(region, 2.0);
        std::size_t stationary_must = 0;
        for (core::ObjectId id : answer.must) {
          if (id < kStationary) ++stationary_must;
        }
        EXPECT_EQ(stationary_must, kStationary);

        const IntervalRangeAnswer window =
            db.QueryRangeInterval(region, 1.0, 3.0, 1.0);
        std::size_t stationary_some_time = 0;
        for (core::ObjectId id : window.must_at_some_time) {
          if (id < kStationary) ++stationary_some_time;
        }
        EXPECT_EQ(stationary_some_time, kStationary);

        const NearestAnswer nearest = db.QueryNearest({200.0, 0.0}, 5, 2.0);
        ASSERT_EQ(nearest.items.size(), 5u);
        for (std::size_t i = 1; i < nearest.items.size(); ++i) {
          const NearestAnswer::Item& a = nearest.items[i - 1];
          const NearestAnswer::Item& b = nearest.items[i];
          EXPECT_LT(std::pair(a.db_distance, a.id),
                    std::pair(b.db_distance, b.id));
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

}  // namespace
}  // namespace modb::db
