#include "db/subscription_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/position_attribute.h"
#include "core/uncertainty.h"
#include "db/mod_database.h"
#include "geo/polygon.h"
#include "geo/route_network.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace modb::db {
namespace {

using core::RegionRelation;

// One straight street from (0,0) to (200,0); objects travel along it with
// the same policy parameters as the query-language tests, so the MUST/MAY
// geometry below matches the classifications those tests already pin down.
class SubscriptionEngineTest : public testing::Test {
 protected:
  SubscriptionEngineTest() : db_(&network_) {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {200.0, 0.0}, "street");
    engine_ = std::make_unique<SubscriptionEngine>(&network_);
    db_.AttachSubscriptions(engine_.get());
  }

  core::PositionAttribute Attr(double distance, double speed,
                               core::Time start = 0.0) const {
    core::PositionAttribute attr;
    attr.start_time = start;
    attr.route = street_;
    attr.start_route_distance = distance;
    attr.start_position = {distance, 0.0};
    attr.speed = speed;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  }

  core::PositionUpdate Update(core::ObjectId id, core::Time time,
                              double distance, double speed) const {
    core::PositionUpdate u;
    u.object = id;
    u.time = time;
    u.route = street_;
    u.route_distance = distance;
    u.position = {distance, 0.0};
    u.speed = speed;
    return u;
  }

  // Ground truth straight from the core layer: what the engine's tracked
  // relation for `attr` at the subscribed instant must be.
  RegionRelation TruthAt(const core::PositionAttribute& attr,
                         const geo::Polygon& region, core::Time t) const {
    const auto route = network_.FindRoute(attr.route);
    return core::ClassifyAgainstPolygon(
        core::ComputeUncertainty(attr, **route, t), **route, region);
  }

  static SubscriptionSpec At(const geo::Polygon& region, core::Time t,
                             SubscriptionMode mode = SubscriptionMode::kAll) {
    SubscriptionSpec spec;
    spec.region = region;
    spec.time = t;
    spec.mode = mode;
    return spec;
  }

  static SubscriptionSpec During(const geo::Polygon& region, core::Time t1,
                                 core::Time t2,
                                 SubscriptionMode mode = SubscriptionMode::kAll) {
    SubscriptionSpec spec = At(region, t1, mode);
    spec.windowed = true;
    spec.window_end = t2;
    return spec;
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  ModDatabase db_;
  std::unique_ptr<SubscriptionEngine> engine_;
};

// ---- Registration ----

TEST_F(SubscriptionEngineTest, SubscribeValidatesRegion) {
  const auto status = engine_->Subscribe(1, At(geo::Polygon{}, 6.0));
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_->num_subscriptions(), 0u);
}

TEST_F(SubscriptionEngineTest, SubscribeRejectsDuplicateId) {
  const geo::Polygon rect = geo::Polygon::Rectangle(0, -1, 50, 1);
  ASSERT_TRUE(engine_->Subscribe(1, At(rect, 6.0)).ok());
  EXPECT_EQ(engine_->Subscribe(1, At(rect, 9.0)).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_->num_subscriptions(), 1u);
  EXPECT_TRUE(engine_->contains(1));
}

TEST_F(SubscriptionEngineTest, UnsubscribeUnknownIsNotFound) {
  EXPECT_EQ(engine_->Unsubscribe(99).code(), util::StatusCode::kNotFound);
}

TEST_F(SubscriptionEngineTest, UnsubscribeStopsEvents) {
  ASSERT_TRUE(
      engine_->Subscribe(1, At(geo::Polygon::Rectangle(0, -1, 50, 1), 6.0))
          .ok());
  ASSERT_TRUE(engine_->Unsubscribe(1).ok());
  ASSERT_TRUE(db_.Insert(7, "truck", Attr(10.0, 1.0)).ok());
  EXPECT_EQ(engine_->num_pending_events(), 0u);
}

// ---- Transition taxonomy ----

TEST_F(SubscriptionEngineTest, InsertEmitsEnterEvent) {
  const geo::Polygon rect = geo::Polygon::Rectangle(0, -1, 50, 1);
  ASSERT_TRUE(engine_->Subscribe(1, At(rect, 6.0)).ok());
  // Object 7 at distance 10, speed 1: position 16 at t=6, well inside —
  // the query-language tests pin this down as MUST.
  const auto attr = Attr(10.0, 1.0);
  ASSERT_EQ(TruthAt(attr, rect, 6.0), RegionRelation::kMustBeIn);
  ASSERT_TRUE(db_.Insert(7, "truck", attr).ok());

  const auto events = engine_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subscription, 1u);
  EXPECT_EQ(events[0].object, 7u);
  EXPECT_EQ(events[0].from, RegionRelation::kOutside);
  EXPECT_EQ(events[0].to, RegionRelation::kMustBeIn);
  EXPECT_DOUBLE_EQ(events[0].at, 0.0);
  EXPECT_EQ(engine_->RelationOf(1, 7), RegionRelation::kMustBeIn);
}

TEST_F(SubscriptionEngineTest, UpdateAwayEmitsLeaveEvent) {
  const geo::Polygon rect = geo::Polygon::Rectangle(0, -1, 50, 1);
  ASSERT_TRUE(engine_->Subscribe(1, At(rect, 6.0)).ok());
  ASSERT_TRUE(db_.Insert(7, "truck", Attr(10.0, 1.0)).ok());
  engine_->TakeEvents();

  // Re-report at distance 100: position 103 at the subscribed instant —
  // outside the region.
  ASSERT_EQ(TruthAt(Attr(100.0, 1.0, 3.0), rect, 6.0),
            RegionRelation::kOutside);
  ASSERT_TRUE(db_.ApplyUpdate(Update(7, 3.0, 100.0, 1.0)).ok());

  const auto events = engine_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].from, RegionRelation::kMustBeIn);
  EXPECT_EQ(events[0].to, RegionRelation::kOutside);
  EXPECT_DOUBLE_EQ(events[0].at, 3.0);
  EXPECT_EQ(engine_->RelationOf(1, 7), RegionRelation::kOutside);
}

TEST_F(SubscriptionEngineTest, UpgradeEmitsMayToMustEvent) {
  // The parked-object MAY case from the query-language tests: object at
  // 150, region [140, 151], t=4 — the uncertainty interval straddles the
  // right boundary.
  const geo::Polygon rect = geo::Polygon::Rectangle(140, -1, 151, 1);
  ASSERT_TRUE(engine_->Subscribe(1, At(rect, 4.0)).ok());
  const auto parked = Attr(150.0, 0.0);
  ASSERT_EQ(TruthAt(parked, rect, 4.0), RegionRelation::kMayBeIn);
  ASSERT_TRUE(db_.Insert(8, "parked", parked).ok());
  {
    const auto events = engine_->TakeEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].to, RegionRelation::kMayBeIn);
  }

  // A fresh report just before the subscribed instant shrinks the
  // uncertainty interval inside the region: MAY -> MUST upgrade.
  const auto fresh = Attr(145.0, 0.0, 3.5);
  ASSERT_EQ(TruthAt(fresh, rect, 4.0), RegionRelation::kMustBeIn);
  ASSERT_TRUE(db_.ApplyUpdate(Update(8, 3.5, 145.0, 0.0)).ok());

  const auto events = engine_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].from, RegionRelation::kMayBeIn);
  EXPECT_EQ(events[0].to, RegionRelation::kMustBeIn);
}

TEST_F(SubscriptionEngineTest, EraseEmitsLeaveEvent) {
  ASSERT_TRUE(
      engine_->Subscribe(1, At(geo::Polygon::Rectangle(0, -1, 50, 1), 6.0))
          .ok());
  ASSERT_TRUE(db_.Insert(7, "truck", Attr(10.0, 1.0)).ok());
  engine_->TakeEvents();
  ASSERT_TRUE(db_.Erase(7).ok());

  const auto events = engine_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].from, RegionRelation::kMustBeIn);
  EXPECT_EQ(events[0].to, RegionRelation::kOutside);
  EXPECT_EQ(engine_->RelationOf(1, 7), RegionRelation::kOutside);
}

// ---- Mode filter ----

TEST_F(SubscriptionEngineTest, MustModeIgnoresMayTransitions) {
  const geo::Polygon rect = geo::Polygon::Rectangle(140, -1, 151, 1);
  ASSERT_TRUE(engine_->Subscribe(1, At(rect, 4.0, SubscriptionMode::kMust))
                  .ok());
  // Outside -> MAY: invisible to a MUST subscriber.
  ASSERT_TRUE(db_.Insert(8, "parked", Attr(150.0, 0.0)).ok());
  EXPECT_EQ(engine_->TakeEvents().size(), 0u);
  // MAY -> MUST: "must" membership flipped, so this one fires.
  ASSERT_TRUE(db_.ApplyUpdate(Update(8, 3.5, 145.0, 0.0)).ok());
  const auto events = engine_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].to, RegionRelation::kMustBeIn);
  // State is tracked even while the filter swallows events.
  EXPECT_EQ(engine_->RelationOf(1, 8), RegionRelation::kMustBeIn);
}

TEST_F(SubscriptionEngineTest, MayModeIgnoresUpgrades) {
  const geo::Polygon rect = geo::Polygon::Rectangle(140, -1, 151, 1);
  ASSERT_TRUE(
      engine_->Subscribe(1, At(rect, 4.0, SubscriptionMode::kMay)).ok());
  // Outside -> MAY: "may" membership flipped — fires.
  ASSERT_TRUE(db_.Insert(8, "parked", Attr(150.0, 0.0)).ok());
  EXPECT_EQ(engine_->TakeEvents().size(), 1u);
  // MAY -> MUST: still "may be in", no event for a MAY subscriber.
  ASSERT_TRUE(db_.ApplyUpdate(Update(8, 3.5, 145.0, 0.0)).ok());
  EXPECT_EQ(engine_->TakeEvents().size(), 0u);
}

// ---- Horizon gate and windows ----

TEST_F(SubscriptionEngineTest, SubscribedInstantBeyondHorizonIsOutside) {
  // Subscribed instant 500 is past start + horizon (120 by default): the
  // standing query sees nothing, exactly like the o-plane indexes.
  ASSERT_TRUE(
      engine_->Subscribe(1, At(geo::Polygon::Rectangle(0, -1, 200, 1), 500.0))
          .ok());
  ASSERT_TRUE(db_.Insert(7, "truck", Attr(10.0, 0.1)).ok());
  EXPECT_EQ(engine_->TakeEvents().size(), 0u);
  EXPECT_EQ(engine_->RelationOf(1, 7), RegionRelation::kOutside);
}

TEST_F(SubscriptionEngineTest, WindowedSubscriptionMatchesPassingObject) {
  // Object 7 sweeps [100, 110] around t = 95; a window that covers the
  // crossing sees the enter, one strictly before it does not.
  const geo::Polygon rect = geo::Polygon::Rectangle(100, -1, 110, 1);
  ASSERT_TRUE(engine_->Subscribe(1, During(rect, 80.0, 110.0)).ok());
  ASSERT_TRUE(engine_->Subscribe(2, During(rect, 0.0, 20.0)).ok());
  ASSERT_TRUE(db_.Insert(7, "truck", Attr(10.0, 1.0)).ok());

  const auto events = engine_->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subscription, 1u);
  EXPECT_NE(events[0].to, RegionRelation::kOutside);
  EXPECT_EQ(engine_->RelationOf(2, 7), RegionRelation::kOutside);
}

TEST_F(SubscriptionEngineTest, WindowNormalisesReversedEndpoints) {
  const geo::Polygon rect = geo::Polygon::Rectangle(100, -1, 110, 1);
  ASSERT_TRUE(engine_->Subscribe(1, During(rect, 110.0, 80.0)).ok());
  ASSERT_TRUE(db_.Insert(7, "truck", Attr(10.0, 1.0)).ok());
  EXPECT_EQ(engine_->TakeEvents().size(), 1u);
}

// ---- Determinism: batch vs sequential (the supersede bugfix) ----

// A batch containing several updates for the same object must emit exactly
// the events sequential ingest emits — in particular no spurious MAY
// transitions from the per-object dedup of the write path's index stage.
TEST_F(SubscriptionEngineTest, BatchOfNEmitsSameEventsAsSequential) {
  geo::RouteNetwork network2;
  const auto street2 =
      network2.AddStraightRoute({0.0, 0.0}, {200.0, 0.0}, "street");
  ASSERT_EQ(street2, street_);
  ModDatabase seq_db(&network2);
  SubscriptionEngine seq_engine(&network2);
  seq_db.AttachSubscriptions(&seq_engine);

  const geo::Polygon rect = geo::Polygon::Rectangle(0, -1, 50, 1);
  for (auto* engine : {engine_.get(), &seq_engine}) {
    ASSERT_TRUE(engine->Subscribe(1, At(rect, 6.0)).ok());
    ASSERT_TRUE(
        engine->Subscribe(2, During(rect, 0.0, 40.0, SubscriptionMode::kMay))
            .ok());
  }
  for (auto* db : {&db_, &seq_db}) {
    ASSERT_TRUE(db->Insert(7, "a", Attr(10.0, 1.0)).ok());
    ASSERT_TRUE(db->Insert(8, "b", Attr(150.0, 0.0)).ok());
  }
  engine_->TakeEvents();
  seq_engine.TakeEvents();

  // Object 7 leaves, re-enters, and leaves again *within one batch*; the
  // middle versions are superseded in the index but must still notify.
  const std::vector<core::PositionUpdate> updates = {
      Update(7, 1.0, 100.0, 1.0),  // leave
      Update(8, 1.5, 150.0, 0.5),  // unrelated object interleaved
      Update(7, 2.0, 20.0, 1.0),   // re-enter
      Update(7, 3.0, 120.0, 1.0),  // leave again
  };

  const auto batch = db_.ApplyUpdateBatch(updates);
  for (const auto& status : batch.statuses) ASSERT_TRUE(status.ok());
  for (const auto& update : updates) {
    ASSERT_TRUE(seq_db.ApplyUpdate(update).ok());
  }

  const auto batched = engine_->TakeEvents();
  const auto sequential = seq_engine.TakeEvents();
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].ToString(), sequential[i].ToString()) << i;
  }
  // The stream saw every intermediate version, so object 7's in-batch
  // excursion produced leave + enter + leave, not one collapsed delta.
  std::size_t transitions_of_7 = 0;
  for (const auto& event : batched) {
    if (event.object == 7 && event.subscription == 1) ++transitions_of_7;
  }
  EXPECT_EQ(transitions_of_7, 3u);
}

// ---- Determinism: incremental vs naive rescan ----

TEST_F(SubscriptionEngineTest, IncrementalMatchesNaiveRescanByteForByte) {
  geo::RouteNetwork network2;
  network2.AddStraightRoute({0.0, 0.0}, {200.0, 0.0}, "street");
  ModDatabase naive_db(&network2);
  SubscriptionEngine::Options naive_options;
  naive_options.naive_rescan = true;
  SubscriptionEngine naive(&network2, naive_options);
  naive_db.AttachSubscriptions(&naive);

  // A spread of standing queries along the street, mixed modes and forms.
  util::Rng rng(42);
  for (SubscriptionId id = 0; id < 40; ++id) {
    const double x0 = rng.Uniform(0.0, 180.0);
    const double x1 = x0 + rng.Uniform(2.0, 20.0);
    const auto mode = static_cast<SubscriptionMode>(rng.UniformInt(0, 2));
    const geo::Polygon rect = geo::Polygon::Rectangle(x0, -1.0, x1, 1.0);
    SubscriptionSpec spec = rng.Uniform() < 0.5
                                ? At(rect, rng.Uniform(0.0, 60.0), mode)
                                : During(rect, rng.Uniform(0.0, 30.0),
                                         rng.Uniform(30.0, 60.0), mode);
    ASSERT_TRUE(engine_->Subscribe(id, spec).ok());
    ASSERT_TRUE(naive.Subscribe(id, spec).ok());
  }

  // Seeded fleet with inserts, updates, and erases.
  for (core::ObjectId id = 0; id < 30; ++id) {
    const auto attr = Attr(rng.Uniform(0.0, 190.0), rng.Uniform(0.0, 1.5));
    ASSERT_TRUE(db_.Insert(id, "obj", attr).ok());
    ASSERT_TRUE(naive_db.Insert(id, "obj", attr).ok());
  }
  for (int round = 1; round <= 5; ++round) {
    std::vector<core::PositionUpdate> updates;
    for (core::ObjectId id = 0; id < 30; ++id) {
      if (rng.Uniform() < 0.6) {
        updates.push_back(Update(id, static_cast<double>(round),
                                 rng.Uniform(0.0, 190.0),
                                 rng.Uniform(0.0, 1.5)));
      }
    }
    db_.ApplyUpdateBatch(updates);
    naive_db.ApplyUpdateBatch(updates);
  }
  ASSERT_TRUE(db_.Erase(3).ok());
  ASSERT_TRUE(naive_db.Erase(3).ok());

  const auto incremental_events = engine_->TakeEvents();
  const auto naive_events = naive.TakeEvents();
  ASSERT_EQ(incremental_events.size(), naive_events.size());
  for (std::size_t i = 0; i < incremental_events.size(); ++i) {
    EXPECT_EQ(incremental_events[i].ToString(), naive_events[i].ToString())
        << i;
  }
  ASSERT_GT(naive_events.size(), 0u);

  // The route-space join must have skipped work the rescan paid for.
  EXPECT_LT(engine_->evals(), naive.evals());
  EXPECT_GT(engine_->evals_saved(), 0u);
  EXPECT_EQ(engine_->evals() + engine_->evals_saved(), naive.evals());
  EXPECT_EQ(engine_->events_emitted(), naive.events_emitted());
}

// ---- Metrics ----

TEST_F(SubscriptionEngineTest, MetricsRegisterAndCount) {
  util::MetricsRegistry registry;
  engine_->SetMetrics(&registry);
  ASSERT_TRUE(
      engine_->Subscribe(1, At(geo::Polygon::Rectangle(0, -1, 50, 1), 6.0))
          .ok());
  ASSERT_TRUE(db_.Insert(7, "truck", Attr(10.0, 1.0)).ok());
  const std::string dump = registry.Dump();
  EXPECT_NE(dump.find("sub.evals"), std::string::npos);
  EXPECT_NE(dump.find("sub.events_emitted"), std::string::npos);
  EXPECT_NE(dump.find("sub.match_latency_us"), std::string::npos);
  EXPECT_EQ(registry.GetCounter("sub.events_emitted")->value(), 1u);
}

}  // namespace
}  // namespace modb::db
