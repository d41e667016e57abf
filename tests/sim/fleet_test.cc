#include "sim/fleet.h"

#include <gtest/gtest.h>

#include "sim/speed_curve.h"
#include "util/rng.h"

namespace modb::sim {
namespace {

class FleetTest : public testing::Test {
 protected:
  FleetTest() { network_.AddGridNetwork(4, 4, 40.0); }

  std::unique_ptr<Vehicle> MakeVehicle(core::ObjectId id, util::Rng& rng,
                                       core::PolicyKind kind) {
    const geo::RouteId route_id = static_cast<geo::RouteId>(
        rng.UniformInt(0, static_cast<std::int64_t>(network_.size()) - 1));
    const geo::Route& route = network_.route(route_id);
    CurveGenOptions options;
    options.duration = 40.0;
    Trip trip(&route, rng.Uniform(0.0, route.Length() * 0.2),
              core::TravelDirection::kForward, 0.0,
              MakeCityCurve(rng, options));
    core::PolicyConfig policy;
    policy.kind = kind;
    policy.update_cost = 5.0;
    policy.max_speed = 1.5;
    return std::make_unique<Vehicle>(id, std::move(trip),
                                     core::MakePolicy(policy));
  }

  geo::RouteNetwork network_;
};

TEST_F(FleetTest, LosslessRunDeliversEverything) {
  db::ModDatabase db(&network_);
  FleetOptions options;
  FleetSimulator fleet(&db, options);
  util::Rng rng(5);
  for (core::ObjectId id = 0; id < 10; ++id) {
    fleet.AddVehicle(
        MakeVehicle(id, rng, core::PolicyKind::kAverageImmediateLinear));
  }
  ASSERT_TRUE(fleet.RegisterAll().ok());
  ASSERT_TRUE(fleet.Run().ok());
  const FleetStats& stats = fleet.stats();
  EXPECT_GT(stats.messages_attempted, 0u);
  EXPECT_EQ(stats.messages_lost, 0u);
  EXPECT_EQ(stats.messages_delivered(), stats.messages_attempted);
  EXPECT_EQ(stats.bound_violations, 0u);
  EXPECT_EQ(stats.vehicle_ticks, 10u * 40u);
  EXPECT_EQ(db.total_updates(), stats.messages_attempted);
}

TEST_F(FleetTest, StepBeforeRegisterFails) {
  db::ModDatabase db(&network_);
  FleetSimulator fleet(&db, FleetOptions{});
  EXPECT_EQ(fleet.Step(1.0).code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(FleetTest, EmptyFleetRunIsOk) {
  db::ModDatabase db(&network_);
  FleetSimulator fleet(&db, FleetOptions{});
  ASSERT_TRUE(fleet.RegisterAll().ok());
  EXPECT_TRUE(fleet.Run().ok());
  EXPECT_EQ(fleet.stats().messages_attempted, 0u);
}

TEST_F(FleetTest, MessageLossTriggersRetransmission) {
  db::ModDatabase db(&network_);
  FleetOptions options;
  options.message_loss_probability = 0.5;
  options.seed = 99;
  options.verify_bounds = false;
  FleetSimulator fleet(&db, options);
  util::Rng rng(7);
  for (core::ObjectId id = 0; id < 10; ++id) {
    fleet.AddVehicle(
        MakeVehicle(id, rng, core::PolicyKind::kCurrentImmediateLinear));
  }
  ASSERT_TRUE(fleet.RegisterAll().ok());
  ASSERT_TRUE(fleet.Run().ok());
  const FleetStats& stats = fleet.stats();
  EXPECT_GT(stats.messages_lost, 0u);
  // Retransmission: attempts exceed what a lossless run sends, and the
  // database still received the delivered share exactly.
  EXPECT_EQ(db.total_updates(), stats.messages_delivered());
  EXPECT_GT(stats.messages_delivered(), 0u);
}

TEST_F(FleetTest, BoundsHoldUnderModerateLoss) {
  // The vehicle only advances its mirror on delivery, so the DBMS bounds
  // stay sound; loss merely delays updates by the retransmission ticks.
  // Allow a small excess budget for consecutive losses.
  db::ModDatabase db(&network_);
  FleetOptions options;
  options.message_loss_probability = 0.3;
  options.seed = 4242;
  FleetSimulator fleet(&db, options);
  util::Rng rng(11);
  for (core::ObjectId id = 0; id < 15; ++id) {
    fleet.AddVehicle(
        MakeVehicle(id, rng, core::PolicyKind::kAverageImmediateLinear));
  }
  ASSERT_TRUE(fleet.RegisterAll().ok());
  ASSERT_TRUE(fleet.Run().ok());
  // Consecutive losses extend the overshoot by ~rate*tick each; with
  // p=0.3 long loss streaks are rare — the excess stays within a few
  // ticks of growth.
  EXPECT_LT(fleet.stats().max_bound_excess, 5.0 * 1.5);
}

TEST_F(FleetTest, LosslessDeterministicAcrossRuns) {
  auto run_once = [this](std::uint64_t seed) {
    db::ModDatabase db(&network_);
    FleetOptions options;
    options.seed = seed;
    FleetSimulator fleet(&db, options);
    util::Rng rng(13);
    for (core::ObjectId id = 0; id < 5; ++id) {
      fleet.AddVehicle(MakeVehicle(id, rng, core::PolicyKind::kDelayedLinear));
    }
    EXPECT_TRUE(fleet.RegisterAll().ok());
    EXPECT_TRUE(fleet.Run().ok());
    return fleet.stats().messages_attempted;
  };
  EXPECT_EQ(run_once(1), run_once(2));  // seed only affects the channel
}

TEST_F(FleetTest, BatchedChannelMatchesPerUpdateChannel) {
  // The uplink batch size must only change how the write path is driven,
  // never what lands in the database or what the vehicles mirror.
  auto run_once = [this](std::size_t batch_size) {
    auto db = std::make_unique<db::ModDatabase>(&network_);
    FleetOptions options;
    options.update_batch_size = batch_size;
    options.message_loss_probability = 0.1;  // loss interleaves with batching
    FleetSimulator fleet(db.get(), options);
    util::Rng rng(23);
    for (core::ObjectId id = 0; id < 8; ++id) {
      fleet.AddVehicle(
          MakeVehicle(id, rng, core::PolicyKind::kAverageImmediateLinear));
    }
    EXPECT_TRUE(fleet.RegisterAll().ok());
    EXPECT_TRUE(fleet.Run().ok());
    EXPECT_EQ(fleet.stats().bound_violations, 0u);
    return std::make_pair(std::move(db), fleet.stats());
  };
  auto [db1, stats1] = run_once(1);
  for (const std::size_t batch : {std::size_t{3}, std::size_t{64}}) {
    auto [dbn, statsn] = run_once(batch);
    EXPECT_EQ(statsn.messages_attempted, stats1.messages_attempted);
    EXPECT_EQ(statsn.messages_lost, stats1.messages_lost);
    EXPECT_EQ(dbn->num_objects(), db1->num_objects());
    db1->ForEachRecord([&](const db::MovingObjectRecord& record) {
      const auto other = dbn->Get(record.id);
      ASSERT_TRUE(other.ok());
      EXPECT_EQ((*other)->attr.start_time, record.attr.start_time);
      EXPECT_EQ((*other)->attr.start_route_distance,
                record.attr.start_route_distance);
      EXPECT_EQ((*other)->attr.route, record.attr.route);
      EXPECT_EQ((*other)->update_count, record.update_count);
    });
  }
}

TEST_F(FleetTest, MixedFleetWithItineraries) {
  db::ModDatabase db(&network_);
  FleetOptions options;
  FleetSimulator fleet(&db, options);
  util::Rng rng(17);
  fleet.AddVehicle(MakeVehicle(0, rng, core::PolicyKind::kDelayedLinear));
  // An itinerary vehicle turning from the first east-west street onto a
  // north-south street.
  const geo::Route& ew = network_.route(0);     // y = 0
  const geo::Route& ns = network_.route(5);     // x = 40: the junction
  Itinerary turn({{&ew, 0.0, 40.0}, {&ns, 0.0, 30.0}}, 0.0,
                 SpeedCurve::Constant(1.0, 40.0));
  core::PolicyConfig policy;
  policy.kind = core::PolicyKind::kCurrentImmediateLinear;
  policy.max_speed = 1.5;
  fleet.AddVehicle(ItineraryVehicle(7, std::move(turn),
                                    core::MakePolicy(policy)));
  ASSERT_TRUE(fleet.RegisterAll().ok());
  ASSERT_TRUE(fleet.Run().ok());
  EXPECT_EQ(fleet.stats().bound_violations, 0u);
  // The route-change update reached the database.
  const auto rec = db.Get(7);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->attr.route, ns.id());
}

}  // namespace
}  // namespace modb::sim
