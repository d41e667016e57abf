// End-to-end integration tests: a fleet of simulated vehicles drives a road
// network, each running its own cost-based update policy; their messages
// flow into the moving-objects database, which answers position and range
// queries. Ground truth comes from the trips, so every DBMS answer can be
// checked against reality:
//   - the actual position always lies inside the returned uncertainty
//     interval (within the tick-discretisation tolerance),
//   - every MUST object is actually in the polygon,
//   - every object actually in the polygon is in MUST or MAY (no false
//     negatives),
//   - the R*-tree path agrees with the linear-scan path.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "db/mod_database.h"
#include "sim/simulator.h"
#include "sim/speed_curve.h"
#include "sim/trip.h"
#include "sim/vehicle.h"
#include "util/rng.h"

namespace modb {
namespace {

struct FleetFixture {
  geo::RouteNetwork network;
  std::vector<sim::Trip> trips;
  std::vector<sim::Vehicle> vehicles;

  explicit FleetFixture(std::uint64_t seed, std::size_t num_vehicles,
                        core::PolicyKind kind) {
    util::Rng rng(seed);
    // A 5x5 street grid, 30 route-distance units apart (larger than any
    // one-hour trip at max speed 1.5 needs per street: streets are 120
    // long).
    network.AddGridNetwork(5, 5, 30.0);
    sim::CurveGenOptions curve_options;
    curve_options.duration = 60.0;

    trips.reserve(num_vehicles);
    for (std::size_t i = 0; i < num_vehicles; ++i) {
      const geo::RouteId route = static_cast<geo::RouteId>(
          rng.UniformInt(0, static_cast<std::int64_t>(network.size()) - 1));
      const geo::Route& r = network.route(route);
      sim::SpeedCurve curve;
      switch (i % 3) {
        case 0:
          curve = sim::MakeHighwayCurve(rng, curve_options);
          break;
        case 1:
          curve = sim::MakeCityCurve(rng, curve_options);
          break;
        default:
          curve = sim::MakeTrafficJamCurve(rng, curve_options);
          break;
      }
      const bool forward = rng.Bernoulli(0.5);
      const double start =
          forward ? rng.Uniform(0.0, r.Length() * 0.2)
                  : rng.Uniform(r.Length() * 0.8, r.Length());
      trips.emplace_back(&r, start,
                         forward ? core::TravelDirection::kForward
                                 : core::TravelDirection::kBackward,
                         0.0, std::move(curve));
    }
    core::PolicyConfig policy;
    policy.kind = kind;
    policy.update_cost = 5.0;
    policy.max_speed = 1.5;
    policy.fixed_threshold = 1.5;
    vehicles.reserve(num_vehicles);
    for (std::size_t i = 0; i < num_vehicles; ++i) {
      vehicles.emplace_back(static_cast<core::ObjectId>(i), trips[i],
                            core::MakePolicy(policy));
    }
  }

  void Register(db::ModDatabase& db) {
    for (auto& v : vehicles) {
      ASSERT_TRUE(
          db.Insert(v.id(), "veh-" + std::to_string(v.id()),
                    v.InitialAttribute())
              .ok());
    }
  }

  void TickAll(db::ModDatabase& db, core::Time t) {
    for (auto& v : vehicles) {
      if (const auto update = v.Tick(t)) {
        ASSERT_TRUE(db.ApplyUpdate(*update).ok());
      }
    }
  }
};

class EndToEndTest : public testing::TestWithParam<core::PolicyKind> {};

TEST_P(EndToEndTest, PositionAnswersAreSound) {
  FleetFixture fleet(101, 20, GetParam());
  db::ModDatabase db(&fleet.network);
  fleet.Register(db);
  const double tick = 1.0;
  // Twice the max-speed-per-tick: deviation growth plus bound shrinkage
  // within one policy-evaluation interval.
  const double tolerance = 2.0 * 1.5 * tick + 1e-9;
  for (core::Time t = 1.0; t <= 60.0; t += tick) {
    fleet.TickAll(db, t);
    for (const auto& v : fleet.vehicles) {
      const auto answer = db.QueryPosition(v.id(), t);
      ASSERT_TRUE(answer.ok());
      const double actual_s = v.motion().ActualRouteDistanceAt(t);
      // The actual position must lie inside the returned uncertainty
      // interval (modulo the one-tick policy-evaluation slack).
      EXPECT_GE(actual_s, answer->uncertainty.lo - tolerance)
          << "object " << v.id() << " t=" << t;
      EXPECT_LE(actual_s, answer->uncertainty.hi + tolerance)
          << "object " << v.id() << " t=" << t;
      // And the database's deviation bound must hold.
      const double deviation = std::fabs(actual_s - answer->route_distance);
      EXPECT_LE(deviation, answer->deviation_bound + tolerance)
          << "object " << v.id() << " t=" << t;
    }
  }
}

TEST_P(EndToEndTest, RangeQueriesAreSoundAndComplete) {
  FleetFixture fleet(202, 25, GetParam());
  db::ModDatabase db(&fleet.network);
  fleet.Register(db);
  util::Rng rng(303);
  const double tick = 1.0;
  const double tolerance = 1.5 * tick;
  for (core::Time t = 1.0; t <= 60.0; t += tick) {
    fleet.TickAll(db, t);
    if (static_cast<int>(t) % 5 != 0) continue;
    for (int q = 0; q < 3; ++q) {
      const geo::Polygon region = geo::Polygon::CenteredRectangle(
          {rng.Uniform(0.0, 120.0), rng.Uniform(0.0, 120.0)}, 25.0, 20.0);
      const db::RangeAnswer answer = db.QueryRange(region, t);
      // MUST objects are actually inside.
      for (core::ObjectId id : answer.must) {
        const geo::Point2 actual =
            fleet.vehicles[id].motion().ActualPositionAt(t);
        geo::Polygon inflated = region;  // tolerance via containment check
        EXPECT_TRUE(
            region.Contains(actual) ||
            region.BoundingBox().Contains(actual) ||
            [&] {
              geo::Box2 grown = region.BoundingBox();
              grown.Inflate(tolerance);
              return grown.Contains(actual);
            }())
            << "MUST object " << id << " outside at t=" << t;
      }
      // Completeness: an object actually inside (by a safe margin) must be
      // in MUST or MAY.
      for (const auto& v : fleet.vehicles) {
        const geo::Point2 actual = v.motion().ActualPositionAt(t);
        geo::Box2 shrunk = region.BoundingBox();
        shrunk.Inflate(-tolerance);
        if (shrunk.Empty() || !shrunk.Contains(actual)) continue;
        const bool in_must = std::binary_search(answer.must.begin(),
                                                answer.must.end(), v.id());
        const bool in_may =
            std::binary_search(answer.may.begin(), answer.may.end(), v.id());
        EXPECT_TRUE(in_must || in_may)
            << "object " << v.id() << " at t=" << t << " missed";
      }
    }
  }
}

TEST_P(EndToEndTest, IndexKindsAgree) {
  FleetFixture fleet_a(404, 15, GetParam());
  FleetFixture fleet_b(404, 15, GetParam());
  FleetFixture fleet_c(404, 15, GetParam());
  db::ModDatabaseOptions rtree_opts;
  rtree_opts.index_kind = db::IndexKind::kTimeSpaceRTree;
  db::ModDatabaseOptions scan_opts;
  scan_opts.index_kind = db::IndexKind::kLinearScan;
  db::ModDatabaseOptions route_opts;
  route_opts.index_kind = db::IndexKind::kRouteBand;
  db::ModDatabase rtree_db(&fleet_a.network, rtree_opts);
  db::ModDatabase scan_db(&fleet_b.network, scan_opts);
  db::ModDatabase route_db(&fleet_c.network, route_opts);
  fleet_a.Register(rtree_db);
  fleet_b.Register(scan_db);
  fleet_c.Register(route_db);
  util::Rng rng(505);
  for (core::Time t = 1.0; t <= 40.0; t += 1.0) {
    fleet_a.TickAll(rtree_db, t);
    fleet_b.TickAll(scan_db, t);
    fleet_c.TickAll(route_db, t);
    const geo::Polygon region = geo::Polygon::CenteredRectangle(
        {rng.Uniform(0.0, 120.0), rng.Uniform(0.0, 120.0)}, 30.0, 30.0);
    const db::RangeAnswer a = rtree_db.QueryRange(region, t);
    const db::RangeAnswer b = scan_db.QueryRange(region, t);
    const db::RangeAnswer c = route_db.QueryRange(region, t);
    EXPECT_EQ(a.must, b.must) << "t=" << t;
    EXPECT_EQ(a.may, b.may) << "t=" << t;
    EXPECT_EQ(c.must, b.must) << "t=" << t;
    EXPECT_EQ(c.may, b.may) << "t=" << t;
  }
  // The databases saw the same update stream.
  EXPECT_EQ(rtree_db.total_updates(), scan_db.total_updates());
  EXPECT_EQ(route_db.total_updates(), scan_db.total_updates());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EndToEndTest,
    testing::Values(core::PolicyKind::kDelayedLinear,
                    core::PolicyKind::kAverageImmediateLinear,
                    core::PolicyKind::kCurrentImmediateLinear,
                    core::PolicyKind::kFixedThreshold,
                    core::PolicyKind::kHybridAdaptive),
    [](const testing::TestParamInfo<core::PolicyKind>& info) {
      return std::string(core::PolicyKindName(info.param));
    });

TEST(EndToEndScenarioTest, TaxiDispatchStory) {
  // The paper's motivating query: "retrieve the free cabs currently within
  // 1 mile of 33 N. Michigan Ave." — one cab parked next to the customer,
  // one cruising far away.
  geo::RouteNetwork network;
  const geo::RouteId michigan_ave =
      network.AddStraightRoute({0.0, 0.0}, {0.0, 100.0}, "michigan-ave");
  db::ModDatabase db(&network);

  core::PositionAttribute near_cab;
  near_cab.route = michigan_ave;
  near_cab.start_route_distance = 50.0;
  near_cab.start_position = {0.0, 50.0};
  near_cab.speed = 0.0;
  near_cab.update_cost = 5.0;
  near_cab.max_speed = 1.5;
  near_cab.policy = core::PolicyKind::kAverageImmediateLinear;
  ASSERT_TRUE(db.Insert(1, "cab-near", near_cab).ok());

  core::PositionAttribute far_cab = near_cab;
  far_cab.start_route_distance = 95.0;
  far_cab.start_position = {0.0, 95.0};
  ASSERT_TRUE(db.Insert(2, "cab-far", far_cab).ok());

  // Customer at (0, 49); 1-mile disc approximated by a 32-gon.
  const geo::Polygon disc = geo::Polygon::RegularNGon({0.0, 49.0}, 1.0, 32);
  const db::RangeAnswer answer = db.QueryRange(disc, 0.5);
  ASSERT_EQ(answer.must.size() + answer.may.size(), 1u);
  const core::ObjectId found =
      answer.must.empty() ? answer.may[0] : answer.must[0];
  EXPECT_EQ(found, 1u);
}

}  // namespace
}  // namespace modb
