// Randomized differential suite for the packed SoA intersection kernel:
// the batched branch-free compare must agree with geo::Box3::Intersects
// box-for-box, including degenerate (zero-extent) boxes and exactly
// touching faces, and the SoA-node tree must answer queries identically to
// a tree running the legacy configuration.

#include "index/soa_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "geo/box.h"
#include "index/rtree3.h"
#include "util/rng.h"

namespace modb::index {
namespace {

using geo::Box3;

struct SoAColumns {
  std::vector<double> min_x, min_y, min_t, max_x, max_y, max_t;

  void Push(const Box3& b) {
    min_x.push_back(b.min[0]);
    min_y.push_back(b.min[1]);
    min_t.push_back(b.min[2]);
    max_x.push_back(b.max[0]);
    max_y.push_back(b.max[1]);
    max_t.push_back(b.max[2]);
  }
  std::size_t size() const { return min_x.size(); }
};

std::vector<std::uint32_t> RunKernel(const SoAColumns& c, const Box3& query) {
  std::vector<std::uint32_t> hits(c.size());
  const std::size_t n = soa::IntersectBoxes(
      c.min_x.data(), c.min_y.data(), c.min_t.data(), c.max_x.data(),
      c.max_y.data(), c.max_t.data(), c.size(), query, hits.data());
  hits.resize(n);
  return hits;
}

std::vector<std::uint32_t> RunScalar(const std::vector<Box3>& boxes,
                                     const Box3& query) {
  std::vector<std::uint32_t> hits;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    if (boxes[i].Intersects(query)) {
      hits.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return hits;
}

// A random non-empty box. Coordinates are quantized to a 0.25 grid so
// exactly-touching and exactly-equal faces occur constantly, and roughly a
// third of the boxes are degenerate in at least one dimension (zero
// extent — points, segments, and slabs are all legal non-empty boxes).
Box3 RandomBox(util::Rng& rng) {
  auto q = [&](double lo, double hi) {
    return std::round(rng.Uniform(lo, hi) * 4.0) / 4.0;
  };
  double lo[3];
  double hi[3];
  for (int d = 0; d < 3; ++d) {
    lo[d] = q(0.0, 100.0);
    const double extent = rng.Bernoulli(0.33) ? 0.0 : q(0.0, 10.0);
    hi[d] = lo[d] + extent;
  }
  return Box3(lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]);
}

TEST(SoAKernelTest, MatchesScalarIntersectsOnRandomBoxes) {
  util::Rng rng(20260808);
  constexpr std::size_t kBoxes = 12000;
  std::vector<Box3> boxes;
  SoAColumns columns;
  for (std::size_t i = 0; i < kBoxes; ++i) {
    const Box3 b = RandomBox(rng);
    boxes.push_back(b);
    columns.Push(b);
  }
  for (int trial = 0; trial < 200; ++trial) {
    const Box3 query = RandomBox(rng);
    EXPECT_EQ(RunKernel(columns, query), RunScalar(boxes, query))
        << "trial " << trial;
  }
}

TEST(SoAKernelTest, TouchingFacesIntersect) {
  // Closed-interval semantics: sharing a face, an edge, or a corner is an
  // intersection; any strict gap, in any one dimension, is not.
  const Box3 base(0.0, 0.0, 0.0, 1.0, 1.0, 1.0);
  SoAColumns columns;
  std::vector<Box3> boxes = {
      Box3(1.0, 0.0, 0.0, 2.0, 1.0, 1.0),  // shares the x = 1 face
      Box3(1.0, 1.0, 0.0, 2.0, 2.0, 1.0),  // shares an edge
      Box3(1.0, 1.0, 1.0, 2.0, 2.0, 2.0),  // shares one corner point
      Box3(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),  // degenerate point on the corner
      Box3(1.0 + 1e-12, 0.0, 0.0, 2.0, 1.0, 1.0),  // strict gap in x
      Box3(0.0, 0.0, -1.0, 1.0, 1.0, -1e-12),      // strict gap in t
  };
  for (const Box3& b : boxes) columns.Push(b);
  const std::vector<std::uint32_t> expected = {0, 1, 2, 3};
  EXPECT_EQ(RunKernel(columns, base), expected);
  EXPECT_EQ(RunKernel(columns, base), RunScalar(boxes, base));
}

TEST(SoAKernelTest, EmptyInputYieldsNoHits) {
  SoAColumns columns;
  EXPECT_TRUE(RunKernel(columns, Box3(0, 0, 0, 1, 1, 1)).empty());
}

// Tree-level differential: the resident tree (node table, child-pointer
// traversal) and a paged tree must answer every query with the same value
// multiset through an interleaved insert/remove workload.
TEST(SoAKernelTest, ResidentTreeMatchesLegacyTree) {
  RTree3 resident;  // defaults: resident
  // A bounded memory pool selects a paged tree; this one holds the whole
  // tree, so nothing is evicted.
  RTree3::Options legacy_options;
  legacy_options.storage.pool_pages = 1 << 16;
  RTree3 legacy(legacy_options);
  ASSERT_EQ(resident.num_pages(), 0u);
  ASSERT_GT(legacy.num_pages(), 0u);

  util::Rng rng(7);
  std::vector<std::pair<Box3, RTree3::Value>> live;
  for (int step = 0; step < 4000; ++step) {
    if (!live.empty() && rng.Bernoulli(0.35)) {
      const std::size_t victim = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      const auto [box, value] = live[victim];
      EXPECT_TRUE(resident.Remove(box, value));
      EXPECT_TRUE(legacy.Remove(box, value));
      live[victim] = live.back();
      live.pop_back();
    } else {
      const Box3 box = RandomBox(rng);
      const auto value = static_cast<RTree3::Value>(step);
      resident.Insert(box, value);
      legacy.Insert(box, value);
      live.emplace_back(box, value);
    }
    if (step % 250 == 0) {
      const Box3 query = RandomBox(rng);
      std::vector<RTree3::Value> a = resident.SearchValues(query);
      std::vector<RTree3::Value> b = legacy.SearchValues(query);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "step " << step;
    }
  }
  EXPECT_EQ(resident.size(), legacy.size());
  ASSERT_TRUE(resident.CheckInvariants().ok());
  ASSERT_TRUE(legacy.CheckInvariants().ok());

  // Full-universe queries agree after the workload too.
  const Box3 everything(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9);
  std::vector<RTree3::Value> a = resident.SearchValues(everything);
  std::vector<RTree3::Value> b = legacy.SearchValues(everything);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), live.size());
}

}  // namespace
}  // namespace modb::index
