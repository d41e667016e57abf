// RTree3::RemoveBatch: a seeded differential suite against a brute-force
// multiset model on every node storage (resident node table, a bounded
// memory pool, a small disk pool)
// and several fan-outs, plus the edge cases of batched removal — a batch
// that condenses every child of an internal root, duplicate entries, short
// counts — and the resident tree's pool-free ownership.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "geo/box.h"
#include "index/rtree3.h"
#include "util/rng.h"

namespace modb::index {
namespace {

namespace fs = std::filesystem;
using geo::Box3;

enum class Backend { kResident, kMemoryPool, kDiskPool };

std::string BackendName(Backend backend) {
  switch (backend) {
    case Backend::kResident: return "resident";
    case Backend::kMemoryPool: return "memory_pool";
    case Backend::kDiskPool: return "disk_pool";
  }
  return "unknown";
}

void PrintTo(Backend backend, std::ostream* os) { *os << BackendName(backend); }

bool SameBox(const Box3& a, const Box3& b) {
  for (int d = 0; d < 3; ++d) {
    if (a.min[d] != b.min[d] || a.max[d] != b.max[d]) return false;
  }
  return true;
}

RTree3::Options MakeOptions(Backend backend, std::size_t fanout,
                            const fs::path& dir) {
  RTree3::Options options;
  options.max_entries = fanout;
  options.min_entries = std::max<std::size_t>(2, fanout * 3 / 8);
  switch (backend) {
    case Backend::kResident:
      break;
    case Backend::kMemoryPool:
      options.storage.pool_pages = std::size_t{1} << 16;
      break;
    case Backend::kDiskPool:
      options.storage.kind = storage::StorageKind::kDisk;
      options.storage.path = (dir / "tree.pages").string();
      options.storage.pool_pages = 8;
      break;
  }
  return options;
}

// An o-plane-like cover: `n` consecutive time slabs along a straight path,
// occasionally with one box listed twice (two identical entries).
std::vector<Box3> ObjectBoxes(util::Rng& rng, std::size_t n) {
  const double x0 = rng.Uniform(0.0, 400.0);
  const double y0 = rng.Uniform(0.0, 400.0);
  const double vx = rng.Uniform(-3.0, 3.0);
  const double vy = rng.Uniform(-3.0, 3.0);
  const double t0 = rng.Uniform(0.0, 20.0);
  const double slab = 4.0;
  std::vector<Box3> boxes;
  for (std::size_t k = 0; k < n; ++k) {
    const double t = t0 + slab * static_cast<double>(k);
    const double x = x0 + vx * t;
    const double y = y0 + vy * t;
    boxes.emplace_back(std::min(x, x + vx * slab) - 1.0,
                       std::min(y, y + vy * slab) - 1.0, t,
                       std::max(x, x + vx * slab) + 1.0,
                       std::max(y, y + vy * slab) + 1.0, t + slab);
  }
  if (n > 1 && rng.Uniform(0.0, 1.0) < 0.1) boxes.push_back(boxes.front());
  return boxes;
}

std::vector<RTree3::Value> Sorted(std::vector<RTree3::Value> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class RemoveBatchDifferentialTest
    : public ::testing::TestWithParam<std::tuple<Backend, std::size_t>> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("modb_remove_batch_" + BackendName(std::get<0>(GetParam())) +
            "_" + std::to_string(std::get<1>(GetParam())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// Model: each object's current boxes. Every step applies one operation to
// both, then checks the tree's invariants and one random query (plus the
// entry count) against a brute-force scan of the model.
TEST_P(RemoveBatchDifferentialTest, MatchesBruteForceModel) {
  const auto [backend, fanout] = GetParam();
  RTree3 tree(MakeOptions(backend, fanout, dir_));
  ASSERT_TRUE(tree.storage_status().ok());
  // A resident tree holds no pages; a paged one holds at least its root.
  ASSERT_EQ(tree.num_pages() == 0, backend == Backend::kResident);
  util::Rng rng(1000 + fanout * 10 + static_cast<std::uint64_t>(backend));
  std::map<RTree3::Value, std::vector<Box3>> model;
  std::size_t model_entries = 0;
  const auto remove_from_model = [&](RTree3::Value v,
                                     const std::vector<Box3>& boxes) {
    std::vector<Box3>& held = model[v];
    for (const Box3& b : boxes) {
      for (auto it = held.begin(); it != held.end(); ++it) {
        if (SameBox(*it, b)) {
          held.erase(it);
          --model_entries;
          break;
        }
      }
    }
    if (held.empty()) model.erase(v);
  };
  const auto random_object = [&]() {
    auto it = model.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng.UniformInt(0, static_cast<std::int64_t>(
                                               model.size() - 1))));
    return it;
  };

  for (int step = 0; step < 400; ++step) {
    const double op = rng.Uniform(0.0, 1.0);
    if (model.empty() || op < 0.45) {
      // Upsert: drop the object's cover in one batch, insert a new one.
      const auto id = static_cast<RTree3::Value>(rng.UniformInt(0, 59));
      if (auto it = model.find(id); it != model.end()) {
        const std::vector<Box3> old = it->second;
        ASSERT_EQ(tree.RemoveBatch(old, id), old.size()) << "step " << step;
        remove_from_model(id, old);
      }
      const std::vector<Box3> boxes = ObjectBoxes(
          rng, static_cast<std::size_t>(rng.UniformInt(1, 30)));
      for (const Box3& b : boxes) tree.Insert(b, id);
      model[id] = boxes;
      model_entries += boxes.size();
    } else if (op < 0.6) {
      // Whole-object removal.
      const auto it = random_object();
      const RTree3::Value id = it->first;
      const std::vector<Box3> boxes = it->second;
      ASSERT_EQ(tree.RemoveBatch(boxes, id), boxes.size()) << "step " << step;
      remove_from_model(id, boxes);
    } else if (op < 0.8) {
      // Partial removal: a random subset of one object's boxes.
      const auto it = random_object();
      const RTree3::Value id = it->first;
      std::vector<Box3> subset;
      for (const Box3& b : it->second) {
        if (rng.Uniform(0.0, 1.0) < 0.5) subset.push_back(b);
      }
      ASSERT_EQ(tree.RemoveBatch(subset, id), subset.size())
          << "step " << step;
      remove_from_model(id, subset);
    } else {
      // Misses: some boxes shifted off every stored box, plus the right
      // boxes under a value nobody holds. Only the unshifted ones go.
      const auto it = random_object();
      const RTree3::Value id = it->first;
      std::vector<Box3> mixed;
      std::vector<Box3> present;
      for (Box3 b : it->second) {
        if (rng.Uniform(0.0, 1.0) < 0.5) {
          b.max[2] += 0.5;  // no stored box has this extent
        } else {
          present.push_back(b);
        }
        mixed.push_back(b);
      }
      ASSERT_EQ(tree.RemoveBatch(it->second, 1'000'000 + id), 0u);
      ASSERT_EQ(tree.RemoveBatch(mixed, id), present.size())
          << "step " << step;
      remove_from_model(id, present);
    }

    const util::Status invariants = tree.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << "step " << step << ": "
                                 << invariants.ToString();
    ASSERT_EQ(tree.size(), model_entries) << "step " << step;
    const double qx = rng.Uniform(-50.0, 450.0);
    const double qy = rng.Uniform(-50.0, 450.0);
    const double qt = rng.Uniform(0.0, 120.0);
    const Box3 query(qx, qy, qt, qx + rng.Uniform(1.0, 150.0),
                     qy + rng.Uniform(1.0, 150.0), qt + rng.Uniform(0.0, 20.0));
    std::vector<RTree3::Value> expected;
    for (const auto& [v, boxes] : model) {
      for (const Box3& b : boxes) {
        if (b.Intersects(query)) expected.push_back(v);
      }
    }
    ASSERT_EQ(Sorted(tree.SearchValues(query)), Sorted(expected))
        << "step " << step;
  }
  EXPECT_GE(tree.height(), 3u) << "the workload should build a deep tree";
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, RemoveBatchDifferentialTest,
    ::testing::Combine(::testing::Values(Backend::kResident,
                                         Backend::kMemoryPool,
                                         Backend::kDiskPool),
                       ::testing::Values(std::size_t{4}, std::size_t{8},
                                         std::size_t{16})),
    [](const ::testing::TestParamInfo<std::tuple<Backend, std::size_t>>&
           info) {
      return BackendName(std::get<0>(info.param)) + "_fanout" +
             std::to_string(std::get<1>(info.param));
    });

Box3 UnitBoxAt(double x, double y, double t) {
  return Box3(x, y, t, x + 1.0, y + 1.0, t + 1.0);
}

RTree3::Options SmallFanout() {
  RTree3::Options options;
  options.max_entries = 4;
  options.min_entries = 2;
  return options;
}

// Five entries split the root leaf into two leaves; removing four of them
// in one batch leaves at most one entry, so both leaves condense and the
// internal root loses every child. The tree must restart from the orphan
// and stay usable.
TEST(RemoveBatchTest, OneBatchCondensesEveryChildOfAnInternalRoot) {
  RTree3 tree(SmallFanout());
  std::vector<Box3> boxes;
  for (int i = 0; i < 5; ++i) boxes.push_back(UnitBoxAt(i * 10.0, 0.0, 0.0));
  for (const Box3& b : boxes) tree.Insert(b, 7);
  ASSERT_EQ(tree.height(), 2u);
  const std::vector<Box3> doomed(boxes.begin(), boxes.begin() + 4);
  EXPECT_EQ(tree.RemoveBatch(doomed, 7), 4u);
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.SearchValues(boxes[4]), std::vector<RTree3::Value>{7});
  // Still usable: inserts descend from the new root.
  for (int i = 0; i < 20; ++i) tree.Insert(UnitBoxAt(i * 3.0, 5.0, 1.0), 8);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.size(), 21u);
}

// The same on deeper trees: one batch removing all but two of many entries
// condenses whole subtrees at several levels; removing everything leaves
// an empty leaf root.
TEST(RemoveBatchTest, OneBatchCollapsesADeepTree) {
  for (const std::size_t keep : {std::size_t{2}, std::size_t{0}}) {
    RTree3 tree(SmallFanout());
    util::Rng rng(5);
    std::vector<Box3> boxes;
    for (int i = 0; i < 300; ++i) {
      boxes.push_back(UnitBoxAt(rng.Uniform(0.0, 100.0),
                                rng.Uniform(0.0, 100.0),
                                rng.Uniform(0.0, 100.0)));
      tree.Insert(boxes.back(), 3);
    }
    ASSERT_GE(tree.height(), 4u);
    const std::vector<Box3> doomed(boxes.begin(), boxes.end() - keep);
    EXPECT_EQ(tree.RemoveBatch(doomed, 3), doomed.size());
    ASSERT_TRUE(tree.CheckInvariants().ok())
        << "keep " << keep << ": " << tree.CheckInvariants().ToString();
    EXPECT_EQ(tree.size(), keep);
    EXPECT_EQ(tree.SearchValues(Box3(-1, -1, -1, 200, 200, 200)).size(), keep);
    if (keep == 0) {
      EXPECT_EQ(tree.height(), 1u);
    }
  }
}

TEST(RemoveBatchTest, IdenticalEntriesListedTwiceAreBothRemoved) {
  RTree3 tree(SmallFanout());
  const Box3 twin = UnitBoxAt(1.0, 1.0, 1.0);
  for (int i = 0; i < 12; ++i) tree.Insert(UnitBoxAt(i * 4.0, 0.0, 0.0), 1);
  tree.Insert(twin, 9);
  tree.Insert(twin, 9);
  tree.Insert(twin, 9);
  const std::vector<Box3> listed_twice = {twin, twin};
  EXPECT_EQ(tree.RemoveBatch(listed_twice, 9), 2u);
  EXPECT_EQ(tree.SearchValues(twin).size(), 2u);  // value 1 at x=0 + one 9
  const std::vector<Box3> listed_once = {twin};
  EXPECT_EQ(tree.RemoveBatch(listed_once, 9), 1u);
  EXPECT_EQ(tree.RemoveBatch(listed_once, 9), 0u);
  EXPECT_EQ(tree.size(), 12u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RemoveBatchTest, MissingBoxGivesAShortCount) {
  RTree3 tree;
  const Box3 present = UnitBoxAt(1.0, 1.0, 1.0);
  const Box3 absent = UnitBoxAt(50.0, 50.0, 50.0);
  tree.Insert(present, 4);
  tree.Insert(present, 5);
  const std::vector<Box3> both = {present, absent};
  EXPECT_EQ(tree.RemoveBatch(both, 4), 1u);
  EXPECT_EQ(tree.RemoveBatch(both, 4), 0u);
  EXPECT_EQ(tree.RemoveBatch(std::vector<Box3>{}, 5), 0u);
  EXPECT_EQ(tree.SearchValues(present), std::vector<RTree3::Value>{5});
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// A resident tree owns its nodes directly: 100k updates through the
// remove+insert path touch no buffer pool and no page store.
TEST(RemoveBatchTest, ResidentTreeNeverTouchesAPool) {
  RTree3 tree;
  util::Rng rng(17);
  constexpr std::size_t kObjects = 200;
  std::vector<std::vector<Box3>> cover(kObjects);
  for (std::size_t id = 0; id < kObjects; ++id) {
    cover[id] = ObjectBoxes(rng, 2);
    for (const Box3& b : cover[id]) tree.Insert(b, id);
  }
  for (int update = 0; update < 100000; ++update) {
    const std::size_t id = static_cast<std::size_t>(update) % kObjects;
    ASSERT_EQ(tree.RemoveBatch(cover[id], id), cover[id].size());
    cover[id] = ObjectBoxes(rng, 2);
    for (const Box3& b : cover[id]) tree.Insert(b, id);
  }
  // Also fails when a live node-table slot is unreachable: every node
  // that left the tree was freed.
  ASSERT_TRUE(tree.CheckInvariants().ok());
  const storage::BufferPoolStats pool = tree.pool_stats();
  EXPECT_EQ(pool.hits, 0u);
  EXPECT_EQ(pool.misses, 0u);
  EXPECT_EQ(pool.creates, 0u);
  EXPECT_EQ(pool.frees, 0u);
  EXPECT_EQ(pool.evictions, 0u);
  EXPECT_EQ(pool.writebacks, 0u);
  EXPECT_EQ(pool.overflow_frames, 0u);
  EXPECT_EQ(tree.pool_frames(), 0u);
  const storage::StorageStats io = tree.storage_stats();
  EXPECT_EQ(io.page_allocs, 0u);
  EXPECT_EQ(io.page_reads, 0u);
  EXPECT_EQ(io.page_writes, 0u);
  EXPECT_EQ(tree.num_pages(), 0u);
}

}  // namespace
}  // namespace modb::index
