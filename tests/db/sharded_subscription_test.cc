// Continuous queries on the sharded layer: deterministic cross-shard event
// merging (byte-identical to an unsharded database fed the same
// mutations), bulk-load rollback semantics, and a multi-threaded stress
// run for the ThreadSanitizer gate.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "db/mod_database.h"
#include "db/sharded_database.h"
#include "db/subscription_engine.h"
#include "util/rng.h"

namespace modb::db {
namespace {

class ShardedSubscriptionTest : public testing::Test {
 protected:
  ShardedSubscriptionTest() {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {400.0, 0.0}, "street");
    avenue_ = network_.AddStraightRoute({0.0, 30.0}, {400.0, 30.0}, "avenue");
  }

  core::PositionAttribute Attr(geo::RouteId route, double s,
                               double v = 0.0) const {
    core::PositionAttribute attr;
    attr.route = route;
    attr.start_route_distance = s;
    attr.start_position = network_.route(route).PointAt(s);
    attr.speed = v;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  }

  core::PositionUpdate Update(core::ObjectId id, core::Time t, double s,
                              double v) const {
    core::PositionUpdate update;
    update.object = id;
    update.time = t;
    update.route = street_;
    update.route_distance = s;
    update.position = network_.route(street_).PointAt(s);
    update.direction = core::TravelDirection::kForward;
    update.speed = v;
    return update;
  }

  static ShardedModDatabaseOptions WithSubscriptions(std::size_t shards) {
    ShardedModDatabaseOptions options;
    options.num_shards = shards;
    options.num_query_threads = 2;
    options.enable_subscriptions = true;
    return options;
  }

  // The standing queries every determinism test registers: a spread of
  // regions along the street, mixed modes and AT / DURING forms.
  static std::vector<std::pair<SubscriptionId, SubscriptionSpec>>
  StandingQueries() {
    std::vector<std::pair<SubscriptionId, SubscriptionSpec>> subs;
    util::Rng rng(7);
    for (SubscriptionId id = 0; id < 24; ++id) {
      const double x0 = rng.Uniform(0.0, 360.0);
      SubscriptionSpec spec;
      spec.region = geo::Polygon::Rectangle(x0, -2.0, x0 + rng.Uniform(5.0, 40.0), 2.0);
      spec.mode = static_cast<SubscriptionMode>(rng.UniformInt(0, 2));
      if (rng.Uniform() < 0.5) {
        spec.time = rng.Uniform(0.0, 50.0);
      } else {
        spec.windowed = true;
        spec.time = rng.Uniform(0.0, 25.0);
        spec.window_end = rng.Uniform(25.0, 50.0);
      }
      subs.emplace_back(id * 3, spec);  // gaps in the id space
    }
    return subs;
  }

  static std::vector<std::string> Render(
      const std::vector<SubscriptionEvent>& events) {
    std::vector<std::string> lines;
    lines.reserve(events.size());
    for (const auto& event : events) lines.push_back(event.ToString());
    return lines;
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  geo::RouteId avenue_ = geo::kInvalidRouteId;
};

TEST_F(ShardedSubscriptionTest, DisabledByDefaultIsFailedPrecondition) {
  ShardedModDatabaseOptions options;
  options.num_shards = 2;
  ShardedModDatabase db(&network_, options);
  EXPECT_FALSE(db.subscriptions_enabled());
  SubscriptionSpec spec;
  spec.region = geo::Polygon::Rectangle(0, -1, 10, 1);
  EXPECT_EQ(db.Subscribe(1, spec).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Unsubscribe(1).code(), util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db.TakeSubscriptionEvents().empty());
}

TEST_F(ShardedSubscriptionTest, SubscribeIsAllOrNothingAcrossShards) {
  ShardedModDatabase db(&network_, WithSubscriptions(4));
  ASSERT_TRUE(db.subscriptions_enabled());
  SubscriptionSpec spec;
  spec.region = geo::Polygon::Rectangle(0, -1, 10, 1);
  ASSERT_TRUE(db.Subscribe(1, spec).ok());
  EXPECT_EQ(db.num_subscriptions(), 1u);
  // Duplicate id: rejected everywhere, registration count unchanged.
  EXPECT_EQ(db.Subscribe(1, spec).code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(db.num_subscriptions(), 1u);
  // Degenerate region: rejected, nothing registered.
  EXPECT_EQ(db.Subscribe(2, SubscriptionSpec{}).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(db.num_subscriptions(), 1u);
  ASSERT_TRUE(db.Unsubscribe(1).ok());
  EXPECT_EQ(db.num_subscriptions(), 0u);
  EXPECT_EQ(db.Unsubscribe(1).code(), util::StatusCode::kNotFound);
}

// The engine takes the store's horizon: with `db.oplane_horizon` 60, a
// standing query 90 units after a model's start sees nothing, exactly as
// `QueryRange` at that instant does, while one 30 units after sees it.
TEST_F(ShardedSubscriptionTest, EnginesUseTheStoreHorizon) {
  ShardedModDatabaseOptions options = WithSubscriptions(2);
  options.db.oplane_horizon = 60.0;
  ShardedModDatabase db(&network_, options);
  // Parked at 100 on the street from t = 0: inside the region throughout.
  const geo::Polygon region = geo::Polygon::Rectangle(90.0, -2.0, 110.0, 2.0);
  SubscriptionSpec late;
  late.region = region;
  late.time = 90.0;
  late.mode = SubscriptionMode::kAll;
  SubscriptionSpec early = late;
  early.time = 30.0;
  ASSERT_TRUE(db.Subscribe(1, late).ok());
  ASSERT_TRUE(db.Subscribe(2, early).ok());
  ASSERT_TRUE(db.Insert(7, "parked", Attr(street_, 100.0)).ok());

  const RangeAnswer at_late = db.QueryRange(region, 90.0);
  EXPECT_TRUE(at_late.must.empty());
  EXPECT_TRUE(at_late.may.empty());
  const RangeAnswer at_early = db.QueryRange(region, 30.0);
  EXPECT_EQ(at_early.must, std::vector<core::ObjectId>{7});

  const auto events = db.TakeSubscriptionEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subscription, 2u);
  EXPECT_EQ(events[0].object, 7u);
  EXPECT_EQ(events[0].to, core::RegionRelation::kMustBeIn);
}

// The merged cross-shard stream must be byte-identical to an unsharded
// database fed the same mutations — same events, same order — for every
// shard count, with batched ingest, single updates, erases, bulk loads,
// and updates on a route appended after the standing queries mixed
// together.
TEST_F(ShardedSubscriptionTest, EventStreamMatchesUnshardedForAnyShardCount) {
  for (const std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));

    ModDatabase single(&network_);
    SubscriptionEngine engine(&network_);
    single.AttachSubscriptions(&engine);
    ShardedModDatabase sharded(&network_, WithSubscriptions(shards));

    for (const auto& [id, spec] : StandingQueries()) {
      ASSERT_TRUE(engine.Subscribe(id, spec).ok());
      ASSERT_TRUE(sharded.Subscribe(id, spec).ok());
    }

    std::vector<std::string> single_stream;
    std::vector<std::string> sharded_stream;
    auto drain = [&] {
      for (auto& line : Render(engine.TakeEvents())) {
        single_stream.push_back(std::move(line));
      }
      for (auto& line : Render(sharded.TakeSubscriptionEvents())) {
        sharded_stream.push_back(std::move(line));
      }
    };

    // Bulk-load a fleet, then mixed mutation rounds.
    util::Rng rng(shards * 1000 + 13);
    std::vector<ModDatabase::BulkObject> fleet;
    for (core::ObjectId id = 0; id < 40; ++id) {
      fleet.push_back({id, "o",
                       Attr(id % 3 == 0 ? avenue_ : street_,
                            rng.Uniform(0.0, 380.0), rng.Uniform(0.0, 1.4))});
    }
    ASSERT_TRUE(single.BulkInsert(fleet).ok());
    ASSERT_TRUE(sharded.BulkInsert(fleet).ok());
    drain();

    for (int round = 1; round <= 6; ++round) {
      std::vector<core::PositionUpdate> updates;
      for (core::ObjectId id = 0; id < 40; ++id) {
        if (rng.Uniform() < 0.5) {
          updates.push_back(Update(id, round * 2.0, rng.Uniform(0.0, 380.0),
                                   rng.Uniform(0.0, 1.4)));
        }
      }
      // Same-object churn inside one batch.
      if (!updates.empty()) {
        auto again = updates.front();
        again.time += 1.0;
        again.route_distance = rng.Uniform(0.0, 380.0);
        again.position = network_.route(street_).PointAt(again.route_distance);
        updates.push_back(again);
      }
      single.ApplyUpdateBatch(updates);
      sharded.ApplyUpdateBatch(updates);
      drain();

      const auto loner =
          Update(round % 7, round * 2.0 + 1.5, rng.Uniform(0.0, 380.0), 0.5);
      ASSERT_EQ(single.ApplyUpdate(loner).ok(), sharded.ApplyUpdate(loner).ok());
      drain();
    }

    // A lane inside every standing query's region, appended after them:
    // neither registry has clipped it, so its deltas meet every live
    // subscription (the naive superset) on both sides.
    const geo::RouteId lane =
        network_.AddStraightRoute({0.0, 1.0}, {400.0, 1.0}, "lane");
    for (const core::Time t : {20.0, 22.0}) {
      std::vector<core::PositionUpdate> on_lane;
      for (core::ObjectId id = 20; id < 30; ++id) {
        core::PositionUpdate update = Update(
            id, t, rng.Uniform(0.0, 380.0), rng.Uniform(0.0, 1.4));
        update.route = lane;
        update.position = network_.route(lane).PointAt(update.route_distance);
        on_lane.push_back(update);
      }
      ASSERT_TRUE(single.ApplyUpdateBatch(on_lane).all_ok());
      ASSERT_TRUE(sharded.ApplyUpdateBatch(on_lane).all_ok());
      drain();
    }
    ASSERT_TRUE(single.Erase(5).ok());
    ASSERT_TRUE(sharded.Erase(5).ok());
    drain();

    ASSERT_GT(single_stream.size(), 0u);
    ASSERT_EQ(single_stream.size(), sharded_stream.size());
    for (std::size_t i = 0; i < single_stream.size(); ++i) {
      ASSERT_EQ(single_stream[i], sharded_stream[i]) << "event " << i;
    }
  }
}

TEST_F(ShardedSubscriptionTest, BulkInsertRollbackDiscardsEvents) {
  ShardedModDatabase db(&network_, WithSubscriptions(4));
  SubscriptionSpec everywhere;
  everywhere.region = geo::Polygon::Rectangle(0, -2, 400, 2);
  everywhere.time = 1.0;
  everywhere.mode = SubscriptionMode::kAll;
  ASSERT_TRUE(db.Subscribe(1, everywhere).ok());

  ASSERT_TRUE(db.Insert(5, "seed", Attr(street_, 100.0, 1.0)).ok());
  EXPECT_EQ(db.TakeSubscriptionEvents().size(), 1u);

  // Id 5 already exists: the whole bulk load fails, shards that had loaded
  // their partition roll back, and none of the transient enter/leave pairs
  // may surface.
  const auto failed = db.BulkInsert({{4, "a", Attr(street_, 10.0, 0.5)},
                                     {5, "dup", Attr(street_, 20.0, 0.5)},
                                     {6, "b", Attr(street_, 30.0, 0.5)}});
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(db.num_objects(), 1u);
  EXPECT_TRUE(db.TakeSubscriptionEvents().empty());

  // The rollback restored Outside state: a successful retry emits fresh
  // enter events for exactly the new objects.
  ASSERT_TRUE(db.BulkInsert({{4, "a", Attr(street_, 10.0, 0.5)},
                             {6, "b", Attr(street_, 30.0, 0.5)}})
                  .ok());
  const auto events = db.TakeSubscriptionEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].object, 4u);
  EXPECT_EQ(events[1].object, 6u);
}

// ThreadSanitizer stress: concurrent writers on disjoint object ranges,
// fan-out readers, an event-drain thread, and a thread that subscribes and
// unsubscribes a rotating id (each call rewrites the shared registry under
// every shard lock while the shards match), all against the same sharded
// database. Correctness of the interleaved stream is covered by the
// deterministic tests above; this one is about data races.
TEST_F(ShardedSubscriptionTest, ConcurrentMutationsQueriesAndDrainsAreRaceFree) {
  ShardedModDatabase db(&network_, WithSubscriptions(4));
  for (const auto& [id, spec] : StandingQueries()) {
    ASSERT_TRUE(db.Subscribe(id, spec).ok());
  }
  constexpr std::size_t kObjectsPerWriter = 16;
  constexpr std::size_t kWriters = 3;
  for (core::ObjectId id = 0; id < kWriters * kObjectsPerWriter; ++id) {
    ASSERT_TRUE(db.Insert(id, "o", Attr(street_, 5.0 + id, 1.0)).ok());
  }

  std::atomic<std::size_t> drained{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      util::Rng rng(w + 1);
      for (int round = 1; round <= 30; ++round) {
        std::vector<core::PositionUpdate> updates;
        for (std::size_t i = 0; i < kObjectsPerWriter; ++i) {
          updates.push_back(Update(w * kObjectsPerWriter + i, round * 2.0,
                                   rng.Uniform(0.0, 380.0),
                                   rng.Uniform(0.0, 1.4)));
        }
        db.ApplyUpdateBatch(updates);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      drained.fetch_add(db.TakeSubscriptionEvents().size(),
                        std::memory_order_relaxed);
    }
  });
  threads.emplace_back([&] {
    const geo::Polygon region = geo::Polygon::Rectangle(50, -2, 250, 2);
    while (!stop.load(std::memory_order_acquire)) {
      (void)db.QueryRange(region, 10.0);
      (void)db.QueryRange(region, 30.0);
    }
  });
  std::atomic<std::size_t> churned{0};
  threads.emplace_back([&] {
    // Ids 1000..1003 in turn; the previous one stays live while the next
    // registers, so the shards always match one churned query.
    SubscriptionSpec spec = StandingQueries().front().second;
    spec.region = geo::Polygon::Rectangle(100, -2, 200, 2);
    SubscriptionId live = 1000;
    EXPECT_TRUE(db.Subscribe(live, spec).ok());
    do {
      const SubscriptionId next = 1000 + (live - 1000 + 1) % 4;
      EXPECT_TRUE(db.Subscribe(next, spec).ok());
      EXPECT_TRUE(db.Unsubscribe(live).ok());
      live = next;
      churned.fetch_add(1, std::memory_order_relaxed);
    } while (!stop.load(std::memory_order_acquire));
    EXPECT_TRUE(db.Unsubscribe(live).ok());
  });
  for (std::size_t w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  drained.fetch_add(db.TakeSubscriptionEvents().size(),
                    std::memory_order_relaxed);
  EXPECT_GT(drained.load(), 0u);
  EXPECT_GT(churned.load(), 0u);
  EXPECT_EQ(db.num_subscriptions(), StandingQueries().size());
}

}  // namespace
}  // namespace modb::db
