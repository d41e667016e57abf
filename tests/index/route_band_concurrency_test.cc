// Readers probing the route-band index under a reader/writer lock while a
// writer applies delta batches and appends routes. The `Concurrent`
// fixture name puts this file inside the ThreadSanitizer ctest gate: TSan
// checks the probes against the writer, the asserts that every probe sees
// whole batches.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "geo/polygon.h"
#include "geo/route_network.h"
#include "index/route_band_index.h"

namespace modb::index {
namespace {

namespace fs = std::filesystem;

core::PositionAttribute Parked(const geo::RouteNetwork& network,
                               geo::RouteId route, double s, double t0) {
  core::PositionAttribute attr;
  attr.start_time = t0;
  attr.route = route;
  attr.start_route_distance = s;
  attr.start_position = network.route(route).PointAt(s);
  attr.speed = 0.0;
  attr.update_cost = 5.0;
  attr.max_speed = 1.5;
  attr.policy = core::PolicyKind::kAverageImmediateLinear;
  return attr;
}

// A stable population the writer never touches, and a churn population
// the writer moves, batch by batch, onto a route it has just appended to
// the network. A reader/writer lock serialises readers against the
// writer, the way the sharded store runs every index. std::shared_mutex
// may prefer readers, and four readers that relock at once can keep the
// writer out for good, so a reader that sees the writer waiting stands
// back until it has had its turn.
void RunProbesUnderWriter(const storage::StorageConfig& storage) {
  geo::RouteNetwork network;
  network.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "base");
  RouteBandIndex::Options options;
  options.rtree.storage = storage;
  RouteBandIndex index(&network, options);

  constexpr core::ObjectId kStable = 200;
  constexpr core::ObjectId kChurnBase = 1000;
  constexpr core::ObjectId kChurn = 40;
  constexpr int kRounds = 150;
  std::vector<IndexDelta> rows;
  std::vector<core::PositionAttribute> attrs;
  attrs.reserve(kStable);
  for (core::ObjectId id = 0; id < kStable; ++id) {
    attrs.push_back(Parked(network, 0, static_cast<double>(id) * 0.5, 0.0));
  }
  for (core::ObjectId id = 0; id < kStable; ++id) {
    rows.push_back({id, &attrs[id]});
  }
  ASSERT_TRUE(index.BulkUpsert(rows).ok());

  std::shared_mutex mu;
  std::atomic<bool> writer_waiting{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread writer([&] {
    std::vector<core::PositionAttribute> moved(kChurn);
    std::vector<core::PositionAttribute> previous(kChurn);
    std::vector<IndexDelta> batch(kChurn);
    for (int round = 0; round < kRounds; ++round) {
      writer_waiting.store(true, std::memory_order_release);
      std::unique_lock lock(mu);
      writer_waiting.store(false, std::memory_order_release);
      // Each round's route lies above the last; the batch moves every
      // churn object onto it.
      const double y = 10.0 + static_cast<double>(round);
      const geo::RouteId route =
          network.AddStraightRoute({0.0, y}, {50.0 + round % 7, y});
      for (core::ObjectId i = 0; i < kChurn; ++i) {
        previous[i] = moved[i];
        moved[i] = Parked(network, route, static_cast<double>(i), 1.0);
        batch[i] = IndexDelta{kChurnBase + i, &moved[i],
                              round == 0 ? nullptr : &previous[i]};
      }
      if (!index.ApplyDeltaBatch(batch).ok()) {
        ADD_FAILURE() << "batch " << round;
        break;
      }
    }
    stop.store(true, std::memory_order_release);
  });

  const geo::Polygon everything =
      geo::Polygon::Rectangle(-10.0, -10.0, 200.0, 200.0);
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      // do-while: every reader probes at least once, even one that
      // starts after the writer is done.
      do {
        while (writer_waiting.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::shared_lock lock(mu);
        const std::vector<core::ObjectId> ids = index.Candidates(everything, 2.0);
        std::size_t stable = 0;
        std::size_t churn = 0;
        for (const core::ObjectId id : ids) (id < kStable ? stable : churn)++;
        EXPECT_EQ(stable, kStable);
        // The batch and the route it moves onto arrive together: 0 before
        // the first batch, every churn object after it.
        EXPECT_TRUE(churn == 0 || churn == kChurn) << "torn batch: " << churn;
        (void)index.num_entries();
        reads.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(index.num_entries(), kStable + kChurn);
  EXPECT_EQ(index.num_objects(), kStable + kChurn);
  EXPECT_EQ(index.remove_misses(), 0u);
  EXPECT_TRUE(index.rtree().CheckInvariants().ok());
}

TEST(ConcurrentRouteBandProbeTest, ResidentProbesUnderShardLockSeeWholeBatches) {
  RunProbesUnderWriter(storage::StorageConfig{});
}

TEST(ConcurrentRouteBandProbeTest, DiskProbesUnderShardLockSeeWholeBatches) {
  const fs::path dir = fs::temp_directory_path() / "modb_route_band_probe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  storage::StorageConfig storage;
  storage.kind = storage::StorageKind::kDisk;
  storage.path = (dir / "index.pages").string();
  storage.pool_pages = 64;
  RunProbesUnderWriter(storage);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace modb::index
