#include "index/rtree3.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.h"

namespace modb::index {
namespace {

using geo::Box3;

Box3 UnitBoxAt(double x, double y, double t) {
  return Box3(x, y, t, x + 1.0, y + 1.0, t + 1.0);
}

TEST(RTree3Test, EmptyTree) {
  RTree3 tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(tree.SearchValues(Box3(0, 0, 0, 100, 100, 100)).empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTree3Test, SingleInsertAndSearch) {
  RTree3 tree;
  tree.Insert(UnitBoxAt(5, 5, 5), 42);
  EXPECT_EQ(tree.size(), 1u);
  const auto hits = tree.SearchValues(Box3(4, 4, 4, 6, 6, 6));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42u);
  EXPECT_TRUE(tree.SearchValues(Box3(10, 10, 10, 11, 11, 11)).empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTree3Test, TouchingBoxesIntersect) {
  RTree3 tree;
  tree.Insert(UnitBoxAt(0, 0, 0), 1);
  // Query sharing only the face x = 1.
  const auto hits = tree.SearchValues(Box3(1, 0, 0, 2, 1, 1));
  EXPECT_EQ(hits.size(), 1u);
}

TEST(RTree3Test, SplitsGrowTheTree) {
  RTree3::Options options;
  options.max_entries = 4;
  options.min_entries = 2;
  RTree3 tree(options);
  for (int i = 0; i < 100; ++i) {
    tree.Insert(UnitBoxAt(i * 2.0, 0.0, 0.0), static_cast<RTree3::Value>(i));
  }
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_GT(tree.height(), 2u);
  EXPECT_GT(tree.num_nodes(), 25u);
  EXPECT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants().ToString();
}

TEST(RTree3Test, SearchFindsAllInsertedUnderSplits) {
  RTree3::Options options;
  options.max_entries = 6;
  options.min_entries = 2;
  RTree3 tree(options);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(UnitBoxAt(static_cast<double>(i % 20) * 3.0,
                          static_cast<double>(i / 20) * 3.0, 0.0),
                static_cast<RTree3::Value>(i));
  }
  auto hits = tree.SearchValues(Box3(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9));
  EXPECT_EQ(hits.size(), 200u);
  std::sort(hits.begin(), hits.end());
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], i);
}

TEST(RTree3Test, RemoveExactEntry) {
  RTree3 tree;
  const Box3 box = UnitBoxAt(1, 1, 1);
  tree.Insert(box, 7);
  tree.Insert(UnitBoxAt(3, 3, 3), 8);
  EXPECT_TRUE(tree.Remove(box, 7));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.SearchValues(Box3(0, 0, 0, 2, 2, 2)).empty());
  // Removing again fails.
  EXPECT_FALSE(tree.Remove(box, 7));
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTree3Test, RemoveRequiresMatchingValue) {
  RTree3 tree;
  const Box3 box = UnitBoxAt(1, 1, 1);
  tree.Insert(box, 7);
  EXPECT_FALSE(tree.Remove(box, 8));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RTree3Test, DuplicateBoxesDistinctValues) {
  RTree3 tree;
  const Box3 box = UnitBoxAt(2, 2, 2);
  tree.Insert(box, 1);
  tree.Insert(box, 2);
  EXPECT_EQ(tree.SearchValues(box).size(), 2u);
  EXPECT_TRUE(tree.Remove(box, 1));
  const auto hits = tree.SearchValues(box);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 2u);
}

TEST(RTree3Test, ClearResets) {
  RTree3 tree;
  for (int i = 0; i < 50; ++i) tree.Insert(UnitBoxAt(i, 0, 0), i);
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(tree.SearchValues(Box3(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9)).empty());
}

// Reference implementation for the randomized differential test.
class NaiveIndex {
 public:
  void Insert(const Box3& box, RTree3::Value value) {
    entries_.push_back({box, value});
  }
  bool Remove(const Box3& box, RTree3::Value value) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& [b, v] = entries_[i];
      bool same = v == value;
      for (int d = 0; d < 3 && same; ++d) {
        same = b.min[d] == box.min[d] && b.max[d] == box.max[d];
      }
      if (same) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
  std::vector<RTree3::Value> Search(const Box3& query) const {
    std::vector<RTree3::Value> out;
    for (const auto& [b, v] : entries_) {
      if (b.Intersects(query)) out.push_back(v);
    }
    return out;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<Box3, RTree3::Value>> entries_;
};

Box3 RandomBox(util::Rng& rng, double extent) {
  const double x = rng.Uniform(0.0, 100.0);
  const double y = rng.Uniform(0.0, 100.0);
  const double t = rng.Uniform(0.0, 100.0);
  return Box3(x, y, t, x + rng.Uniform(0.1, extent),
              y + rng.Uniform(0.1, extent), t + rng.Uniform(0.1, extent));
}

// Differential property test: random inserts/removes/searches agree with a
// linear-scan reference, and the structural invariants hold throughout.
class RTreeDifferentialTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RTreeDifferentialTest, MatchesNaiveReference) {
  util::Rng rng(GetParam());
  RTree3::Options options;
  options.max_entries = 8;
  options.min_entries = 3;
  RTree3 tree(options);
  NaiveIndex naive;
  std::vector<std::pair<Box3, RTree3::Value>> live;
  RTree3::Value next_value = 0;

  for (int step = 0; step < 600; ++step) {
    const double action = rng.Uniform();
    if (action < 0.6 || live.empty()) {
      const Box3 box = RandomBox(rng, 8.0);
      tree.Insert(box, next_value);
      naive.Insert(box, next_value);
      live.push_back({box, next_value});
      ++next_value;
    } else if (action < 0.8) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      const auto [box, value] = live[pick];
      EXPECT_TRUE(tree.Remove(box, value));
      EXPECT_TRUE(naive.Remove(box, value));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const Box3 query = RandomBox(rng, 30.0);
      auto got = tree.SearchValues(query);
      auto want = naive.Search(query);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "step " << step;
    }
    if (step % 100 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << step << ": " << tree.CheckInvariants().ToString();
    }
    ASSERT_EQ(tree.size(), naive.size());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeDifferentialTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(RTree3Test, SublinearSearchTouchesFewNodes) {
  // Indirect sublinearity check: a point query on a large tree must visit
  // far fewer leaf entries than a full scan would. We approximate "visited"
  // by the number of results for a tiny query being tiny while the tree is
  // large and well-formed.
  RTree3 tree;
  for (int i = 0; i < 5000; ++i) {
    const double x = static_cast<double>(i % 100);
    const double y = static_cast<double>(i / 100);
    tree.Insert(Box3(x, y, 0.0, x + 0.5, y + 0.5, 1.0), i);
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const auto hits = tree.SearchValues(Box3(10.1, 10.1, 0.0, 10.4, 10.4, 1.0));
  EXPECT_EQ(hits.size(), 1u);
  EXPECT_GE(tree.height(), 3u);
}

}  // namespace
}  // namespace modb::index
