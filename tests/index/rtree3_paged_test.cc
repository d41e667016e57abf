#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geo/box.h"
#include "index/rtree3.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace modb::index {
namespace {

namespace fs = std::filesystem;

// Property: an RTree3 on disk-backed pages behind a bounded buffer pool
// answers every query byte-identically to the historical all-in-memory
// tree — the storage layer is allowed to change cost, never answers.

geo::Box3 RandomBox(util::Rng& rng) {
  const double x = rng.Uniform(0.0, 1000.0);
  const double y = rng.Uniform(0.0, 1000.0);
  const double t = rng.Uniform(0.0, 120.0);
  return geo::Box3(x, y, t, x + rng.Uniform(0.1, 30.0),
                   y + rng.Uniform(0.1, 30.0), t + rng.Uniform(0.1, 10.0));
}

std::vector<RTree3::Value> Sorted(std::vector<RTree3::Value> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class PagedRTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("modb_paged_rtree_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  RTree3::Options PagedOptions(std::size_t pool_pages) const {
    RTree3::Options options;
    options.storage.kind = storage::StorageKind::kDisk;
    options.storage.path = (dir_ / "tree.pages").string();
    options.storage.pool_pages = pool_pages;
    return options;
  }

  fs::path dir_;
};

TEST_F(PagedRTreeTest, RandomWorkloadsMatchInMemoryTree) {
  // Three seeds x (insert / remove / search) against a pool far smaller
  // than the tree, so queries continuously fault pages in and out.
  for (const std::uint64_t seed : {7u, 101u, 90210u}) {
    util::Rng rng(seed);
    RTree3 mem;
    RTree3 paged(PagedOptions(/*pool_pages=*/8));

    std::vector<std::pair<geo::Box3, RTree3::Value>> live;
    for (int step = 0; step < 600; ++step) {
      const double dice = rng.Uniform(0.0, 1.0);
      if (dice < 0.65 || live.empty()) {
        const geo::Box3 box = RandomBox(rng);
        const auto value = static_cast<RTree3::Value>(step);
        mem.Insert(box, value);
        paged.Insert(box, value);
        live.emplace_back(box, value);
      } else if (dice < 0.85) {
        const std::size_t victim = static_cast<std::size_t>(
            rng.Uniform(0.0, static_cast<double>(live.size())));
        const auto [box, value] = live[std::min(victim, live.size() - 1)];
        EXPECT_TRUE(mem.Remove(box, value));
        EXPECT_TRUE(paged.Remove(box, value));
        live.erase(live.begin() +
                   static_cast<std::ptrdiff_t>(std::min(victim, live.size() - 1)));
      } else {
        const geo::Box3 query = RandomBox(rng);
        EXPECT_EQ(Sorted(mem.SearchValues(query)),
                  Sorted(paged.SearchValues(query)))
            << "seed " << seed << " step " << step;
      }
    }
    ASSERT_TRUE(paged.storage_status().ok())
        << paged.storage_status().ToString();
    ASSERT_TRUE(mem.CheckInvariants().ok());
    ASSERT_TRUE(paged.CheckInvariants().ok())
        << paged.CheckInvariants().ToString();
    EXPECT_EQ(mem.size(), paged.size());
    EXPECT_EQ(mem.height(), paged.height());
    EXPECT_EQ(mem.num_nodes(), paged.num_nodes());

    // Full-extent query: the complete stored sets are identical.
    const geo::Box3 everything(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9);
    EXPECT_EQ(Sorted(mem.SearchValues(everything)),
              Sorted(paged.SearchValues(everything)));
    // The tiny pool really was under pressure.
    EXPECT_GT(paged.pool_stats().evictions, 0u) << "seed " << seed;
    EXPECT_LE(paged.pool_frames(), 8u + 4u)
        << "pool should stay near its cap (allowing pinned overflow)";
  }
}

TEST_F(PagedRTreeTest, BulkLoadMatchesInMemoryTree) {
  util::Rng rng(424242);
  std::vector<std::pair<geo::Box3, RTree3::Value>> entries;
  for (int i = 0; i < 800; ++i) {
    entries.emplace_back(RandomBox(rng), static_cast<RTree3::Value>(i));
  }
  RTree3 mem;
  RTree3 paged(PagedOptions(/*pool_pages=*/8));
  mem.BulkLoad(entries);
  paged.BulkLoad(std::move(entries));
  ASSERT_TRUE(paged.storage_status().ok());
  ASSERT_TRUE(paged.CheckInvariants().ok())
      << paged.CheckInvariants().ToString();
  EXPECT_EQ(mem.size(), paged.size());
  EXPECT_EQ(mem.height(), paged.height());
  EXPECT_EQ(mem.num_nodes(), paged.num_nodes());

  util::Rng qrng(5);
  for (int q = 0; q < 100; ++q) {
    const geo::Box3 query = RandomBox(qrng);
    EXPECT_EQ(Sorted(mem.SearchValues(query)), Sorted(paged.SearchValues(query)))
        << "query " << q;
  }
}

TEST_F(PagedRTreeTest, SmallPoolWritesBackAndClearEmptiesTheTree) {
  RTree3 paged(PagedOptions(/*pool_pages=*/4));
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    paged.Insert(RandomBox(rng), static_cast<RTree3::Value>(i));
  }
  // A 4-frame pool under a 200-entry tree writes pages back as it evicts.
  EXPECT_GT(paged.pool_stats().writebacks, 0u);
  ASSERT_TRUE(paged.storage_status().ok());
  EXPECT_EQ(paged.size(), 200u);

  // Clear empties the page store; the tree is usable again immediately.
  paged.Clear();
  EXPECT_EQ(paged.size(), 0u);
  paged.Insert(RandomBox(rng), 1);
  EXPECT_EQ(paged.size(), 1u);
  ASSERT_TRUE(paged.CheckInvariants().ok());
}

// The page file is scratch space addressed by page id: a write-back
// overwrites its page's slot, and freed ids are reused before the file
// grows. However many pages a small pool writes back, the file stays
// within page size x the most pages the tree ever held.
TEST_F(PagedRTreeTest, PageFileStaysWithinPeakLivePages) {
  const RTree3::Options options = PagedOptions(/*pool_pages=*/16);
  RTree3 paged(options);
  // Nothing resets the store here, so allocations minus frees is the
  // number of live pages. Within one insert or remove that number falls
  // and then rises, so sampling after each one sees every peak.
  const auto live_pages = [&paged] {
    const storage::StorageStats io = paged.storage_stats();
    return io.page_allocs - io.page_frees;
  };
  std::uint64_t peak = live_pages();
  util::Rng rng(5000);
  constexpr std::size_t kBoxes = 2000;
  std::vector<geo::Box3> boxes;
  for (std::size_t i = 0; i < kBoxes; ++i) {
    boxes.push_back(RandomBox(rng));
    paged.Insert(boxes.back(), i);
    peak = std::max(peak, live_pages());
  }
  for (int update = 0; update < 20000; ++update) {
    const auto i = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(kBoxes) - 1));
    ASSERT_TRUE(paged.Remove(boxes[i], i));
    peak = std::max(peak, live_pages());
    boxes[i] = RandomBox(rng);
    paged.Insert(boxes[i], i);
    peak = std::max(peak, live_pages());
  }
  ASSERT_TRUE(paged.storage_status().ok());
  ASSERT_TRUE(paged.CheckInvariants().ok());
  EXPECT_GT(paged.pool_stats().writebacks, 20000u);
  const auto size = util::FileSize(options.storage.path);
  ASSERT_TRUE(size.ok());
  EXPECT_LE(*size, peak * options.storage.page_size)
      << "peak live pages " << peak;
}

TEST_F(PagedRTreeTest, PageFitValidationPoisonsOversizedFanout) {
  // max_entries+1 entries must fit one page (an overfull node can be
  // evicted between insert and split). 512-byte pages cannot hold a
  // 64-way node, and the tree must refuse cleanly instead of corrupting.
  RTree3::Options options = PagedOptions(/*pool_pages=*/4);
  options.max_entries = 64;
  options.min_entries = 26;
  options.storage.page_size = 512;
  RTree3 tree(options);
  EXPECT_FALSE(tree.storage_status().ok());
  tree.Insert(geo::Box3(0, 0, 0, 1, 1, 1), 7);  // no-op under poison
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(
      tree.SearchValues(geo::Box3(-10, -10, -10, 10, 10, 10)).empty());
}

}  // namespace
}  // namespace modb::index
