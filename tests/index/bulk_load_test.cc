// Tests of STR bulk loading: RTree3::BulkLoad and the index/database bulk
// paths built on it.

#include <gtest/gtest.h>

#include <algorithm>

#include "delta_rows.h"
#include "index/rtree3.h"
#include "index/timespace_index.h"
#include "util/rng.h"

namespace modb::index {
namespace {

using geo::Box3;

std::vector<std::pair<Box3, RTree3::Value>> RandomEntries(std::size_t n,
                                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<Box3, RTree3::Value>> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0.0, 200.0);
    const double y = rng.Uniform(0.0, 200.0);
    const double t = rng.Uniform(0.0, 200.0);
    entries.emplace_back(Box3(x, y, t, x + rng.Uniform(0.5, 4.0),
                              y + rng.Uniform(0.5, 4.0),
                              t + rng.Uniform(0.5, 4.0)),
                         i);
  }
  return entries;
}

TEST(BulkLoadTest, EmptyAndTiny) {
  RTree3 tree;
  tree.BulkLoad({});
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  tree.BulkLoad(RandomEntries(3, 1));
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BulkLoadTest, InvariantsAcrossSizes) {
  for (std::size_t n : {1u, 15u, 16u, 17u, 100u, 1000u, 5000u}) {
    RTree3 tree;
    tree.BulkLoad(RandomEntries(n, n));
    EXPECT_EQ(tree.size(), n);
    EXPECT_TRUE(tree.CheckInvariants().ok())
        << "n=" << n << ": " << tree.CheckInvariants().ToString();
  }
}

TEST(BulkLoadTest, SearchMatchesIncrementalBuild) {
  const auto entries = RandomEntries(2000, 7);
  RTree3 bulk;
  bulk.BulkLoad(entries);
  RTree3 incremental;
  for (const auto& [box, value] : entries) incremental.Insert(box, value);

  util::Rng rng(8);
  for (int q = 0; q < 100; ++q) {
    const double x = rng.Uniform(0.0, 180.0);
    const double y = rng.Uniform(0.0, 180.0);
    const double t = rng.Uniform(0.0, 180.0);
    const Box3 query(x, y, t, x + 20.0, y + 20.0, t + 20.0);
    auto a = bulk.SearchValues(query);
    auto b = incremental.SearchValues(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "query " << q;
  }
}

TEST(BulkLoadTest, PacksTighterThanIncremental) {
  const auto entries = RandomEntries(5000, 3);
  RTree3 bulk;
  bulk.BulkLoad(entries);
  RTree3 incremental;
  for (const auto& [box, value] : entries) incremental.Insert(box, value);
  // STR packs nodes nearly full: fewer nodes for the same data.
  EXPECT_LT(bulk.num_nodes(), incremental.num_nodes());
  EXPECT_LE(bulk.height(), incremental.height());
}

TEST(BulkLoadTest, TreeRemainsMutableAfterBulkLoad) {
  RTree3 tree;
  tree.BulkLoad(RandomEntries(500, 11));
  // Inserts and removals on top of a packed tree keep working.
  const Box3 extra(500.0, 500.0, 500.0, 501.0, 501.0, 501.0);
  tree.Insert(extra, 99999);
  EXPECT_EQ(tree.size(), 501u);
  EXPECT_EQ(tree.SearchValues(extra).size(), 1u);
  EXPECT_TRUE(tree.Remove(extra, 99999));
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.size(), 500u);
}

TEST(BulkLoadTest, ReplacesPreviousContents) {
  RTree3 tree;
  tree.Insert(Box3(0, 0, 0, 1, 1, 1), 1);
  tree.BulkLoad(RandomEntries(10, 13));
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_TRUE(tree.SearchValues(Box3(0, 0, 0, 0.5, 0.5, 0.5)).empty() ||
              tree.size() == 10u);
}

/// `SearchIf` with the plain box-intersection test at both levels.
class IntersectsFilter final : public RTree3::Filter {
 public:
  explicit IntersectsFilter(const Box3& query) : query_(query) {}
  bool Enter(const Box3& box) const override { return box.Intersects(query_); }
  bool Accept(const Box3& box) const override {
    return box.Intersects(query_);
  }

 private:
  Box3 query_;
};

TEST(BulkLoadTest, XOrderPackingAnswersAsStrWithFilteredSearch) {
  const auto entries = RandomEntries(3000, 21);
  RTree3 str;
  str.BulkLoad(entries);
  RTree3 x_order;
  x_order.BulkLoad(entries, RTree3::Packing::kXOrder);
  ASSERT_TRUE(x_order.CheckInvariants().ok());
  EXPECT_EQ(x_order.size(), entries.size());
  util::Rng rng(22);
  for (int q = 0; q < 100; ++q) {
    const double x = rng.Uniform(0.0, 200.0);
    const double y = rng.Uniform(0.0, 200.0);
    const double t = rng.Uniform(0.0, 200.0);
    const Box3 query(x, y, t, x + 20.0, y + 20.0, t + 20.0);
    std::vector<RTree3::Value> expected = str.SearchValues(query);
    const IntersectsFilter filter(query);
    std::vector<RTree3::Value> got = x_order.SearchIf(filter);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

TEST(TimeSpaceBulkUpsertTest, MatchesIncrementalUpserts) {
  geo::RouteNetwork network;
  network.AddGridNetwork(6, 6, 50.0);
  util::Rng rng(17);
  std::vector<std::pair<core::ObjectId, core::PositionAttribute>> objects;
  for (core::ObjectId id = 0; id < 80; ++id) {
    core::PositionAttribute attr;
    attr.route = static_cast<geo::RouteId>(
        rng.UniformInt(0, static_cast<std::int64_t>(network.size()) - 1));
    attr.start_route_distance =
        rng.Uniform(0.0, network.route(attr.route).Length() * 0.5);
    attr.speed = rng.Uniform(0.1, 1.2);
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    objects.emplace_back(id, attr);
  }
  TimeSpaceIndex bulk(&network);
  bulk.BulkUpsert(objects);
  TimeSpaceIndex incremental(&network);
  for (const auto& [id, attr] : objects) UpsertRow(incremental, id, attr);

  EXPECT_EQ(bulk.num_objects(), incremental.num_objects());
  EXPECT_EQ(bulk.num_entries(), incremental.num_entries());
  EXPECT_TRUE(bulk.rtree().CheckInvariants().ok());

  for (int q = 0; q < 40; ++q) {
    const geo::Polygon region = geo::Polygon::CenteredRectangle(
        {rng.Uniform(0.0, 250.0), rng.Uniform(0.0, 250.0)}, 30.0, 30.0);
    const core::Time t = rng.Uniform(0.0, 60.0);
    EXPECT_EQ(bulk.Candidates(region, t), incremental.Candidates(region, t))
        << "q=" << q;
  }
}

TEST(TimeSpaceBulkUpsertTest, DeterministicAcrossInputOrder) {
  // Regression: the packed-load input used to be emitted in unordered-map
  // iteration order, so two identical stores bulk-loaded structurally
  // different trees — recovery replay did not reproduce the index. The
  // input is now sorted by id.
  geo::RouteNetwork network;
  network.AddGridNetwork(5, 5, 40.0);
  util::Rng rng(23);
  std::vector<std::pair<core::ObjectId, core::PositionAttribute>> objects;
  for (core::ObjectId id = 0; id < 150; ++id) {
    core::PositionAttribute attr;
    attr.route = static_cast<geo::RouteId>(
        rng.UniformInt(0, static_cast<std::int64_t>(network.size()) - 1));
    attr.start_route_distance =
        rng.Uniform(0.0, network.route(attr.route).Length() * 0.5);
    attr.speed = rng.Uniform(0.1, 1.2);
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    objects.emplace_back(id, attr);
  }
  auto reversed = objects;
  std::reverse(reversed.begin(), reversed.end());

  TimeSpaceIndex a(&network);
  TimeSpaceIndex b(&network);
  ASSERT_TRUE(a.BulkUpsert(objects).ok());
  ASSERT_TRUE(b.BulkUpsert(reversed).ok());
  EXPECT_EQ(a.rtree().size(), b.rtree().size());
  EXPECT_EQ(a.rtree().num_nodes(), b.rtree().num_nodes());
  EXPECT_EQ(a.rtree().height(), b.rtree().height());
  for (int q = 0; q < 40; ++q) {
    const geo::Polygon region = geo::Polygon::CenteredRectangle(
        {rng.Uniform(0.0, 200.0), rng.Uniform(0.0, 200.0)}, 30.0, 30.0);
    const core::Time t = rng.Uniform(0.0, 60.0);
    EXPECT_EQ(a.Candidates(region, t), b.Candidates(region, t)) << "q=" << q;
  }
}

TEST(TimeSpaceBulkUpsertTest, UnknownRouteFailsWithoutSideEffects) {
  geo::RouteNetwork network;
  const geo::RouteId r = network.AddStraightRoute({0.0, 0.0}, {100.0, 0.0});
  core::PositionAttribute good;
  good.route = r;
  good.start_route_distance = 10.0;
  good.speed = 1.0;
  good.update_cost = 5.0;
  good.max_speed = 1.5;
  good.policy = core::PolicyKind::kAverageImmediateLinear;
  core::PositionAttribute bad = good;
  bad.route = 777;  // no such route

  TimeSpaceIndex index(&network);
  ASSERT_TRUE(index.BulkUpsert({{1, good}}).ok());
  const std::size_t entries = index.num_entries();
  // All rows are validated before anything is touched: the good row in a
  // failing batch must NOT be applied.
  const util::Status s = index.BulkUpsert({{2, good}, {3, bad}});
  EXPECT_EQ(s.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(index.num_objects(), 1u);
  EXPECT_EQ(index.num_entries(), entries);
  EXPECT_TRUE(index.rtree().CheckInvariants().ok());
}

TEST(TimeSpaceBulkUpsertTest, UpdatesAfterBulkLoadWork) {
  geo::RouteNetwork network;
  const geo::RouteId r = network.AddStraightRoute({0.0, 0.0}, {300.0, 0.0});
  core::PositionAttribute attr;
  attr.route = r;
  attr.start_route_distance = 10.0;
  attr.speed = 1.0;
  attr.update_cost = 5.0;
  attr.max_speed = 1.5;
  attr.policy = core::PolicyKind::kAverageImmediateLinear;
  TimeSpaceIndex index(&network);
  index.BulkUpsert({{1, attr}, {2, attr}});
  // A later single-object upsert replaces only that object's plane.
  attr.start_time = 50.0;
  attr.start_route_distance = 200.0;
  UpsertRow(index, 1, attr);
  EXPECT_EQ(index.num_objects(), 2u);
  EXPECT_TRUE(index.rtree().CheckInvariants().ok());
  const geo::Polygon near_start =
      geo::Polygon::Rectangle(0.0, -1.0, 40.0, 1.0);
  const auto candidates = index.Candidates(near_start, 55.0);
  // Object 1 moved away; object 2's stale plane still covers the region
  // only within its own horizon — at t=55 object 2's database position is
  // at 65, uncertainty small, so neither appears... but the index is only
  // a candidate filter; we assert object 1 is definitely not reported at
  // its old anchor once re-upserted far away.
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), 1u) ==
              candidates.end());
}

}  // namespace
}  // namespace modb::index
