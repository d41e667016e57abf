#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "geo/polygon.h"
#include "geo/route_network.h"
#include "index/linear_scan_index.h"
#include "index/object_index.h"
#include "index/route_band_index.h"
#include "index/timespace_index.h"

namespace modb::index {
namespace {

/// The `ApplyDeltaBatch` validate-all-first contract, uniformly across the
/// index kinds: a batch with a mid-batch invalid row must fail without
/// touching the index — no prefix of the batch may be applied (the
/// database's batch write path relies on the all-or-nothing behaviour for
/// its rollback).
class DeltaBatchContractTest
    : public testing::TestWithParam<const char*> {
 protected:
  DeltaBatchContractTest() {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {200.0, 0.0});
    avenue_ = network_.AddStraightRoute({0.0, 0.0}, {0.0, 200.0});
  }

  std::unique_ptr<ObjectIndex> MakeIndex() const {
    const std::string kind = GetParam();
    if (kind == "rtree") return std::make_unique<TimeSpaceIndex>(&network_);
    if (kind == "route") {
      return std::make_unique<RouteBandIndex>(&network_,
                                              RouteBandIndex::Options{});
    }
    return std::make_unique<LinearScanIndex>(&network_);
  }

  core::PositionAttribute Attr(geo::RouteId route, double start,
                               double speed) const {
    core::PositionAttribute attr;
    attr.start_time = 0.0;
    attr.route = route;
    attr.start_route_distance = start;
    attr.start_position = network_.route(route).PointAt(start);
    attr.speed = speed;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  }

  /// Candidate sets over a probe grid — the observable index state.
  std::string Probe(const ObjectIndex& index) const {
    std::string out;
    for (const double x0 : {0.0, 50.0, 120.0}) {
      const geo::Polygon region =
          geo::Polygon::Rectangle(x0, -10.0, x0 + 60.0, 210.0);
      for (const double t : {0.0, 10.0, 40.0}) {
        std::vector<core::ObjectId> ids = index.Candidates(region, t);
        std::sort(ids.begin(), ids.end());
        for (core::ObjectId id : ids) out += std::to_string(id) + ',';
        out += ';';
      }
    }
    return out;
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  geo::RouteId avenue_ = geo::kInvalidRouteId;
};

TEST_P(DeltaBatchContractTest, MidBatchInvalidRouteLeavesIndexUntouched) {
  auto index = MakeIndex();
  const core::PositionAttribute a = Attr(street_, 10.0, 1.0);
  const core::PositionAttribute b = Attr(avenue_, 20.0, 0.5);
  ASSERT_TRUE(index->ApplyDeltaBatch({{1, &a}, {2, &b}}).ok());
  const std::size_t objects = index->num_objects();
  const std::size_t entries = index->num_entries();
  const std::string before = Probe(*index);

  // Valid rows ahead of and behind the poisoned row: an upsert moving an
  // existing object, a remove, a fresh insert — none may land.
  core::PositionAttribute moved = Attr(street_, 50.0, 1.2);
  core::PositionAttribute invalid = Attr(street_, 5.0, 1.0);
  invalid.route = 777;  // no such route
  core::PositionAttribute fresh = Attr(avenue_, 40.0, 0.8);
  const util::Status status = index->ApplyDeltaBatch(
      {{1, &moved}, {2, nullptr}, {3, &invalid}, {4, &fresh}});
  EXPECT_FALSE(status.ok());

  EXPECT_EQ(index->num_objects(), objects);
  EXPECT_EQ(index->num_entries(), entries);
  EXPECT_EQ(Probe(*index), before);
  // The index still works: the same batch without the poisoned row applies.
  ASSERT_TRUE(
      index->ApplyDeltaBatch({{1, &moved}, {2, nullptr}, {4, &fresh}}).ok());
  EXPECT_EQ(index->num_objects(), objects);  // +1 insert, -1 remove
  EXPECT_NE(Probe(*index), before);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DeltaBatchContractTest,
                         testing::Values("rtree", "scan", "route"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace modb::index
