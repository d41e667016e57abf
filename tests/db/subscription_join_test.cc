// Seeded differential of the subscription engine's route-space join
// against its naive rescan. Two stores share one network and see the same
// operations; one engine matches through its route table, the other
// evaluates every standing query against every record. Their event streams
// must be byte-identical, and the join may never evaluate more pairs.
//
// The operation mix covers what the join's covering argument has to get
// right: forward, backward and parked objects; bands past both route ends;
// AT instants before a model's start; DURING windows across start +
// horizon; winding multi-segment routes next to grid streets; zero-area
// regions; a route added after the standing queries; an unsubscribe and
// re-subscribe of one id; and batches that update one object twice.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/position_attribute.h"
#include "core/refiner.h"
#include "core/uncertainty.h"
#include "db/mod_database.h"
#include "db/subscription_engine.h"
#include "geo/polygon.h"
#include "geo/route_network.h"
#include "util/rng.h"

namespace modb::db {
namespace {

using core::RegionRelation;

constexpr core::Duration kHorizon = 40.0;
constexpr double kSpacing = 60.0;   // grid street spacing
constexpr double kExtent = 120.0;   // the grid spans [0, kExtent]²
constexpr std::size_t kObjects = 40;
constexpr SubscriptionId kSubscriptions = 60;

/// One store with its engine; both stores of a run share the network.
struct Store {
  Store(const geo::RouteNetwork* network, bool naive)
      : db(network, DbOptions()), engine(network, EngineOptions(naive)) {
    db.AttachSubscriptions(&engine);
  }
  static ModDatabaseOptions DbOptions() {
    ModDatabaseOptions options;
    options.oplane_horizon = kHorizon;
    return options;
  }
  static SubscriptionEngine::Options EngineOptions(bool naive) {
    SubscriptionEngine::Options options;
    options.naive_rescan = naive;
    return options;
  }

  ModDatabase db;
  SubscriptionEngine engine;
};

class SubscriptionJoinTest : public testing::TestWithParam<std::uint64_t> {
 protected:
  SubscriptionJoinTest() : rng_(GetParam()) {
    network_.AddGridNetwork(3, 3, kSpacing);
    for (int i = 0; i < 2; ++i) {
      network_.AddRandomWindingRoute(rng_, {kSpacing, kSpacing}, 10, 12.0,
                                     1.2);
    }
  }

  /// Drives the seeded operation mix through both stores, checking the
  /// event streams after every step.
  void Drive() {
    for (SubscriptionId id = 0; id < kSubscriptions; ++id) Subscribe(id);
    for (core::ObjectId id = 0; id < kObjects; ++id) {
      Insert(id, rng_.Uniform(0.0, 20.0));
    }
    for (int round = 1; round <= 12 && !HasFatalFailure(); ++round) {
      if (round == 4) {
        // A route the standing queries have never been clipped against.
        network_.AddRandomWindingRoute(rng_, {kSpacing / 2, kSpacing * 1.5},
                                       8, 10.0, 1.2);
      }
      if (round == 6) {
        // The same id, re-registered with a new query.
        const SubscriptionId id = static_cast<SubscriptionId>(
            rng_.UniformInt(0, kSubscriptions - 1));
        ASSERT_TRUE(join_.engine.Unsubscribe(id).ok());
        ASSERT_TRUE(naive_.engine.Unsubscribe(id).ok());
        specs_.erase(id);
        Subscribe(id);
      }
      UpdateRound();
      if (rng_.Bernoulli(0.5)) {
        const auto id = static_cast<core::ObjectId>(
            rng_.UniformInt(0, kObjects - 1));
        if (last_time_.contains(id)) {
          ASSERT_TRUE(join_.db.Erase(id).ok());
          ASSERT_TRUE(naive_.db.Erase(id).ok());
          last_time_.erase(id);
          CheckStreams();
          Insert(id, 10.0 * round);
        }
      }
    }
  }

  core::PositionAttribute RandomAttr(core::Time t) {
    core::PositionAttribute attr;
    attr.start_time = t;
    attr.policy = static_cast<core::PolicyKind>(rng_.UniformInt(0, 6));
    attr.update_cost = rng_.Uniform(0.5, 60.0);
    attr.fixed_threshold = rng_.Uniform(0.5, 40.0);
    attr.period = rng_.Uniform(0.5, 12.0);
    attr.step_threshold = rng_.Uniform(0.5, 30.0);
    Move(&attr);
    attr.max_speed = attr.speed + rng_.Uniform(0.0, 8.0);
    return attr;
  }

  /// A random route, route distance, direction and speed for `attr`; an
  /// eighth start at each route end, and a fifth are parked.
  void Move(core::PositionAttribute* attr) {
    attr->route = static_cast<geo::RouteId>(
        rng_.UniformInt(0, static_cast<std::int64_t>(network_.size()) - 1));
    const geo::Route& route = network_.route(attr->route);
    const double len = route.Length();
    const double u = rng_.Uniform();
    attr->start_route_distance =
        u < 0.125 ? 0.0 : u < 0.25 ? len : rng_.Uniform(0.0, len);
    attr->start_position = route.PointAt(attr->start_route_distance);
    attr->direction = rng_.Bernoulli(0.5) ? core::TravelDirection::kForward
                                          : core::TravelDirection::kBackward;
    attr->speed = rng_.Bernoulli(0.2) ? 0.0 : rng_.Uniform(0.2, 6.0);
  }

  /// A rectangle in or around the grid (one in eight of zero width), AT an
  /// instant or DURING a window (some given reversed), any mode.
  SubscriptionSpec RandomSpec() {
    SubscriptionSpec spec;
    const double x = rng_.Uniform(-10.0, kExtent + 10.0);
    const double y = rng_.Uniform(-10.0, kExtent + 10.0);
    const double hx = rng_.Bernoulli(0.125) ? 0.0 : rng_.Uniform(1.0, 30.0);
    const double hy = rng_.Uniform(1.0, 30.0);
    // Zero-width rectangles sit on a vertical street half the time.
    const double cx = hx == 0.0 && rng_.Bernoulli(0.5) ? kSpacing : x;
    spec.region = geo::Polygon::Rectangle(cx - hx, y - hy, cx + hx, y + hy);
    spec.mode = static_cast<SubscriptionMode>(rng_.UniformInt(0, 2));
    spec.time = rng_.Uniform(-20.0, 160.0);
    if (rng_.Bernoulli(0.5)) {
      spec.windowed = true;
      spec.window_end = spec.time + rng_.Uniform(-10.0, 60.0);
    }
    return spec;
  }

  void Subscribe(SubscriptionId id) {
    const SubscriptionSpec spec = RandomSpec();
    ASSERT_TRUE(join_.engine.Subscribe(id, spec).ok());
    ASSERT_TRUE(naive_.engine.Subscribe(id, spec).ok());
    specs_[id] = spec;
  }

  void Insert(core::ObjectId id, core::Time t) {
    const core::PositionAttribute attr = RandomAttr(t);
    ASSERT_TRUE(join_.db.Insert(id, "o", attr).ok());
    ASSERT_TRUE(naive_.db.Insert(id, "o", attr).ok());
    last_time_[id] = t;
    CheckStreams();
  }

  /// One batch updating about 60 % of the objects, a fifth of them twice.
  void UpdateRound() {
    std::vector<core::PositionUpdate> batch;
    for (auto& [id, last] : last_time_) {
      if (!rng_.Bernoulli(0.6)) continue;
      const int times = rng_.Bernoulli(0.2) ? 2 : 1;
      for (int i = 0; i < times; ++i) {
        core::PositionAttribute attr;
        Move(&attr);
        core::PositionUpdate update;
        update.object = id;
        update.time = last + rng_.Uniform(0.0, 12.0);
        update.route = attr.route;
        update.route_distance = attr.start_route_distance;
        update.position = attr.start_position;
        update.direction = attr.direction;
        update.speed = attr.speed;
        batch.push_back(update);
        last = update.time;
      }
    }
    ASSERT_TRUE(join_.db.ApplyUpdateBatch(batch).all_ok());
    ASSERT_TRUE(naive_.db.ApplyUpdateBatch(batch).all_ok());
    CheckStreams();
  }

  void CheckStreams() {
    const auto join = join_.engine.TakeEvents();
    const auto naive = naive_.engine.TakeEvents();
    ASSERT_EQ(join.size(), naive.size());
    for (std::size_t i = 0; i < join.size(); ++i) {
      ASSERT_EQ(join[i].ToString(), naive[i].ToString()) << i;
      ASSERT_EQ(join[i].ordinal, naive[i].ordinal) << i;
    }
    events_ += join.size();
  }

  /// The relation the engine must track: the subscribed window clipped to
  /// [start, start + horizon], classified by the refine kernel.
  RegionRelation Evaluate(SubscriptionSpec spec,
                          const core::PositionAttribute& attr) {
    if (spec.windowed && spec.window_end < spec.time) {
      std::swap(spec.time, spec.window_end);
    }
    const geo::Route& route = network_.route(attr.route);
    const core::Time w1 = std::max(spec.time, attr.start_time);
    const core::Time w2 = std::min(spec.windowed ? spec.window_end : spec.time,
                                   attr.start_time + kHorizon);
    if (w1 > w2) return RegionRelation::kOutside;
    if (!spec.windowed) {
      return core::ClassifyAgainstPolygon(
          core::ComputeUncertainty(attr, route, w1), route, spec.region);
    }
    return refiner_.ClassifyDuring(spec.region, attr, route, w1, w2, 1.0);
  }

  geo::RouteNetwork network_;
  util::Rng rng_;
  Store join_{&network_, false};
  Store naive_{&network_, true};
  std::map<SubscriptionId, SubscriptionSpec> specs_;
  std::map<core::ObjectId, core::Time> last_time_;  // live objects
  std::size_t events_ = 0;
  core::Refiner refiner_;
};

TEST_P(SubscriptionJoinTest, EventStreamMatchesNaiveRescan) {
  Drive();
  if (HasFatalFailure()) return;
  EXPECT_GT(events_, 0u);
  const SubscriptionEngine& join = join_.engine;
  const SubscriptionEngine& naive = naive_.engine;
  EXPECT_LT(join.evals(), naive.evals());
  EXPECT_EQ(join.evals() + join.evals_saved(), naive.evals());
  EXPECT_EQ(join.events_emitted(), naive.events_emitted());
  // Tracked state agrees too, not only the events it produced.
  for (const auto& [sid, spec] : specs_) {
    for (core::ObjectId id = 0; id < kObjects; ++id) {
      ASSERT_EQ(join.RelationOf(sid, id), naive.RelationOf(sid, id))
          << "sub " << sid << " object " << id;
    }
  }
}

// Re-priming (a recovered shard's path) evaluates only the pairs the route
// table matches; every relation must still equal a full evaluation.
TEST_P(SubscriptionJoinTest, RePrimeMatchesFullEvaluation) {
  Drive();
  if (HasFatalFailure()) return;
  SubscriptionEngine& engine = join_.engine;
  const std::uint64_t evals = engine.evals();
  engine.ResetTracking();
  std::map<core::ObjectId, core::PositionAttribute> models;
  join_.db.ForEachRecord([&](const MovingObjectRecord& rec) {
    engine.PrimeObject(rec.id, rec.attr);
    models.emplace(rec.id, rec.attr);
  });
  EXPECT_TRUE(engine.TakeEvents().empty());
  EXPECT_EQ(engine.evals(), evals);  // priming is not counted
  std::size_t tracked = 0;
  for (const auto& [sid, spec] : specs_) {
    for (core::ObjectId id = 0; id < kObjects; ++id) {
      const auto model = models.find(id);
      const RegionRelation want = model == models.end()
                                      ? RegionRelation::kOutside
                                      : Evaluate(spec, model->second);
      ASSERT_EQ(engine.RelationOf(sid, id), want)
          << "sub " << sid << " object " << id;
      if (want != RegionRelation::kOutside) ++tracked;
    }
  }
  EXPECT_GT(tracked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubscriptionJoinTest,
                         testing::Range<std::uint64_t>(1, 13));

// ---- Targeted cases ----

class SubscriptionJoinCaseTest : public testing::Test {
 protected:
  SubscriptionJoinCaseTest() {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "street");
  }

  core::PositionAttribute Parked(geo::RouteId route, double s) const {
    core::PositionAttribute attr;
    attr.route = route;
    attr.start_route_distance = s;
    attr.start_position = network_.route(route).PointAt(s);
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  }

  static SubscriptionSpec At(const geo::Polygon& region, core::Time t) {
    SubscriptionSpec spec;
    spec.region = region;
    spec.time = t;
    spec.mode = SubscriptionMode::kAll;
    return spec;
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
};

// A route appended after the standing query registered is not in the
// route table until the next Subscribe or Unsubscribe: a delta on it meets
// every live subscription, the naive superset, so the one query here is
// evaluated once and sees the object.
TEST_F(SubscriptionJoinCaseTest, RouteAddedAfterSubscribeIsMatched) {
  ModDatabase db(&network_);
  SubscriptionEngine engine(&network_);
  db.AttachSubscriptions(&engine);
  ASSERT_TRUE(engine
                  .Subscribe(1, At(geo::Polygon::Rectangle(40, 40, 60, 60),
                                   5.0))
                  .ok());
  const geo::RouteId avenue =
      network_.AddStraightRoute({50.0, 0.0}, {50.0, 100.0}, "avenue");
  ASSERT_TRUE(db.Insert(7, "parked", Parked(avenue, 50.0)).ok());
  const auto events = engine.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].to, RegionRelation::kMustBeIn);
  EXPECT_EQ(engine.evals(), 1u);
}

// Unsubscribing drops the id's route entries: its re-registration matches
// only its new region.
TEST_F(SubscriptionJoinCaseTest, ResubscribedIdMatchesOnlyItsNewRegion) {
  ModDatabase db(&network_);
  SubscriptionEngine engine(&network_);
  db.AttachSubscriptions(&engine);
  ASSERT_TRUE(
      engine.Subscribe(1, At(geo::Polygon::Rectangle(0, -1, 20, 1), 5.0))
          .ok());
  ASSERT_TRUE(engine.Unsubscribe(1).ok());
  ASSERT_TRUE(
      engine.Subscribe(1, At(geo::Polygon::Rectangle(70, -1, 90, 1), 5.0))
          .ok());
  ASSERT_TRUE(db.Insert(7, "old", Parked(street_, 10.0)).ok());
  EXPECT_TRUE(engine.TakeEvents().empty());
  EXPECT_EQ(engine.evals(), 0u);
  ASSERT_TRUE(db.Insert(8, "new", Parked(street_, 80.0)).ok());
  const auto events = engine.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object, 8u);
}

// An object parked at a route end has its uncertainty interval clamped
// there; a query region around only that end still sees it.
TEST_F(SubscriptionJoinCaseTest, BandPastARouteEndMatchesAtThatEnd) {
  ModDatabase db(&network_);
  SubscriptionEngine engine(&network_);
  db.AttachSubscriptions(&engine);
  ASSERT_TRUE(
      engine.Subscribe(1, At(geo::Polygon::Rectangle(99, -1, 101, 1), 5.0))
          .ok());
  ASSERT_TRUE(
      engine.Subscribe(2, At(geo::Polygon::Rectangle(-1, -1, 1, 1), 5.0))
          .ok());
  // Speeding toward the far end: the database position at t = 5 is 125,
  // past the end, and the clamped interval is the end point.
  core::PositionAttribute attr = Parked(street_, 95.0);
  attr.speed = 6.0;
  attr.max_speed = 7.0;
  ASSERT_TRUE(db.Insert(7, "fast", attr).ok());
  const auto events = engine.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subscription, 1u);
  EXPECT_NE(events[0].to, RegionRelation::kOutside);
  EXPECT_EQ(engine.evals(), 1u);
}

// Unsubscribing also drops the entries a route added after Subscribe got:
// the object on that route is then evaluated against the other query only.
TEST_F(SubscriptionJoinCaseTest, UnsubscribeDropsEntriesOnALaterRoute) {
  ModDatabase db(&network_);
  SubscriptionEngine engine(&network_);
  db.AttachSubscriptions(&engine);
  const geo::Polygon region = geo::Polygon::Rectangle(40, 40, 60, 60);
  ASSERT_TRUE(engine.Subscribe(1, At(region, 5.0)).ok());
  ASSERT_TRUE(engine.Subscribe(2, At(region, 5.0)).ok());
  const geo::RouteId avenue =
      network_.AddStraightRoute({50.0, 0.0}, {50.0, 100.0}, "avenue");
  ASSERT_TRUE(db.Insert(7, "parked", Parked(avenue, 50.0)).ok());
  EXPECT_EQ(engine.TakeEvents().size(), 2u);
  ASSERT_TRUE(engine.Unsubscribe(1).ok());
  ASSERT_TRUE(db.Erase(7).ok());
  const auto events = engine.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subscription, 2u);
  EXPECT_EQ(events[0].to, RegionRelation::kOutside);
  EXPECT_EQ(engine.evals(), 3u);
}

// Attaching gives the engine the store's horizon: with `oplane_horizon`
// 60, a standing query 90 units after a model's start sees nothing, as
// `QueryRange` at that instant does, while one 30 units after sees it.
TEST_F(SubscriptionJoinCaseTest, AttachedEngineUsesTheStoreHorizon) {
  ModDatabaseOptions options;
  options.oplane_horizon = 60.0;
  ModDatabase db(&network_, options);
  SubscriptionEngine engine(&network_);
  db.AttachSubscriptions(&engine);
  EXPECT_EQ(engine.horizon(), 60.0);
  const geo::Polygon region = geo::Polygon::Rectangle(40, -1, 60, 1);
  ASSERT_TRUE(engine.Subscribe(1, At(region, 90.0)).ok());
  ASSERT_TRUE(engine.Subscribe(2, At(region, 30.0)).ok());
  ASSERT_TRUE(db.Insert(7, "parked", Parked(street_, 50.0)).ok());
  const RangeAnswer late = db.QueryRange(region, 90.0);
  EXPECT_TRUE(late.must.empty());
  EXPECT_TRUE(late.may.empty());
  EXPECT_EQ(db.QueryRange(region, 30.0).must,
            std::vector<core::ObjectId>{7});
  EXPECT_EQ(engine.RelationOf(1, 7), RegionRelation::kOutside);
  EXPECT_EQ(engine.RelationOf(2, 7), RegionRelation::kMustBeIn);
  const auto events = engine.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subscription, 2u);
}

// The store refuses a negative update cost, whose negative deviation bound
// would swap the interval's ends past the band the join tests: an ail
// object parked at 50 with cost -20 has the interval [30, 50] at t = 2.
TEST_F(SubscriptionJoinCaseTest, NegativeUpdateCostNeverReachesTheJoin) {
  ModDatabase db(&network_);
  SubscriptionEngine engine(&network_);
  db.AttachSubscriptions(&engine);
  ASSERT_TRUE(
      engine.Subscribe(1, At(geo::Polygon::Rectangle(35, -1, 45, 1), 2.0))
          .ok());
  core::PositionAttribute attr = Parked(street_, 50.0);
  attr.update_cost = -20.0;
  EXPECT_EQ(db.Insert(7, "negative", attr).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(db.num_objects(), 0u);
  EXPECT_EQ(engine.evals(), 0u);
  EXPECT_TRUE(engine.TakeEvents().empty());
}

TEST_F(SubscriptionJoinCaseTest, NanTimeIsRejected) {
  SubscriptionEngine engine(&network_);
  SubscriptionSpec spec = At(geo::Polygon::Rectangle(0, -1, 20, 1), 5.0);
  spec.time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.Subscribe(1, spec).code(),
            util::StatusCode::kInvalidArgument);
  spec.time = 5.0;
  spec.windowed = true;
  spec.window_end = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.Subscribe(1, spec).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.num_subscriptions(), 0u);
}

}  // namespace
}  // namespace modb::db
