// Satellite of the failure-domain PR: continuous queries across shard
// recovery. A quarantined shard healed in place (WAL reopen) or by a full
// re-recovery swap must leave the merged subscription event stream
// byte-identical to a store that never faulted — the swap silently
// re-primes the engine from the recovered state instead of replaying
// registration transitions. Restart recovery must emit no replay events.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/sharded_database.h"
#include "db/subscription_engine.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

class SubscriptionRecoveryTest : public testing::Test {
 protected:
  SubscriptionRecoveryTest() {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {400.0, 0.0}, "street");
  }

  void SetUp() override {
    dir_ = (fs::path(testing::TempDir()) /
            ("sub_recovery_" +
             std::string(testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  core::PositionAttribute Attr(double s, double v) const {
    core::PositionAttribute attr;
    attr.route = street_;
    attr.start_route_distance = s;
    attr.start_position = network_.route(street_).PointAt(s);
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

  ShardedModDatabaseOptions BaseOptions() const {
    ShardedModDatabaseOptions options;
    options.num_shards = 4;
    options.num_query_threads = 0;  // inline fan-out: deterministic
    options.enable_subscriptions = true;
    options.supervisor.auto_remediate = false;  // tests step recovery
    return options;
  }

  ShardedModDatabaseOptions DurableOptions() const {
    ShardedModDatabaseOptions options = BaseOptions();
    options.durable_dir = dir_;
    options.durability.wal.sync_every_append = true;
    return options;
  }

  static std::vector<std::pair<SubscriptionId, SubscriptionSpec>>
  StandingQueries() {
    std::vector<std::pair<SubscriptionId, SubscriptionSpec>> subs;
    util::Rng rng(5);
    for (SubscriptionId id = 0; id < 12; ++id) {
      const double x0 = rng.Uniform(0.0, 330.0);
      SubscriptionSpec spec;
      spec.region = geo::Polygon::Rectangle(
          x0, -2.0, x0 + rng.Uniform(20.0, 60.0), 2.0);
      spec.mode = static_cast<SubscriptionMode>(rng.UniformInt(0, 2));
      if (rng.Uniform() < 0.5) {
        spec.time = rng.Uniform(0.0, 40.0);
      } else {
        spec.windowed = true;
        spec.time = rng.Uniform(0.0, 20.0);
        spec.window_end = rng.Uniform(20.0, 40.0);
      }
      subs.emplace_back(id, spec);
    }
    return subs;
  }

  void SubscribeAll(ShardedModDatabase* db) {
    for (const auto& [id, spec] : StandingQueries()) {
      ASSERT_TRUE(db->Subscribe(id, spec).ok());
    }
  }

  /// One seeded mutation round applied identically to both stores. Rounds
  /// are numbered globally so phase 2 continues where phase 1 stopped.
  void ApplyRound(int round, std::uint64_t seed, ShardedModDatabase* a,
                  ShardedModDatabase* b) {
    util::Rng rng(seed + static_cast<std::uint64_t>(round));
    std::vector<core::PositionUpdate> updates;
    for (core::ObjectId id = 0; id < 24; ++id) {
      if (rng.Uniform() < 0.6) {
        updates.push_back(Update(id, round * 2.0, rng.Uniform(0.0, 380.0),
                                 rng.Uniform(0.0, 1.4)));
      }
    }
    const auto ra = a->ApplyUpdateBatch(updates);
    const auto rb = b->ApplyUpdateBatch(updates);
    ASSERT_EQ(ra.applied, rb.applied);
    const auto loner =
        Update(round % 11, round * 2.0 + 1.0, rng.Uniform(0.0, 380.0), 0.7);
    ASSERT_EQ(a->ApplyUpdate(loner).ok(), b->ApplyUpdate(loner).ok());
  }

  void LoadFleet(ShardedModDatabase* db) {
    util::Rng rng(21);
    for (core::ObjectId id = 0; id < 24; ++id) {
      ASSERT_TRUE(
          db->Insert(id, "o", Attr(rng.Uniform(0.0, 380.0),
                                   rng.Uniform(0.0, 1.4)))
              .ok());
    }
  }

  static void DrainInto(ShardedModDatabase* db,
                        std::vector<std::string>* stream) {
    for (const SubscriptionEvent& event : db->TakeSubscriptionEvents()) {
      stream->push_back(event.ToString());
    }
  }

  static void ExpectSameStream(const std::vector<std::string>& control,
                               const std::vector<std::string>& healed) {
    ASSERT_EQ(control.size(), healed.size());
    for (std::size_t i = 0; i < control.size(); ++i) {
      ASSERT_EQ(control[i], healed[i]) << "event " << i;
    }
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  std::string dir_;
};

// Full re-recovery swap with live subscriptions: the healed stream must be
// indistinguishable from the never-faulted control — no replayed enters,
// no spurious leave/enter pairs around the swap, no lost transitions.
TEST_F(SubscriptionRecoveryTest, ReRecoverySwapPreservesEventStream) {
  ShardedModDatabase control(&network_, BaseOptions());
  ShardedModDatabase durable(&network_, DurableOptions());
  ASSERT_TRUE(durable.durability_status().ok());
  SubscribeAll(&control);
  SubscribeAll(&durable);
  LoadFleet(&control);
  LoadFleet(&durable);

  std::vector<std::string> control_stream;
  std::vector<std::string> healed_stream;
  DrainInto(&control, &control_stream);
  DrainInto(&durable, &healed_stream);
  ASSERT_GT(control_stream.size(), 0u) << "fleet load must emit enters";

  for (int round = 1; round <= 4; ++round) {
    ApplyRound(round, 400, &control, &durable);
    DrainInto(&control, &control_stream);
    DrainInto(&durable, &healed_stream);
  }

  // Fault + heal one shard via the swap flavour (the WAL is healthy, so
  // remediation replays the shard's durable home into a fresh store).
  durable.supervisor().ReportFault(2, util::Status::Internal("operator"));
  ASSERT_TRUE(durable.supervisor().TryRecoverShard(2).ok());
  ASSERT_EQ(durable.shard_health(2), ShardHealth::kHealthy);
  // The swap itself is silent: re-priming emits nothing.
  EXPECT_TRUE(durable.TakeSubscriptionEvents().empty());
  EXPECT_EQ(durable.num_subscriptions(), StandingQueries().size());

  for (int round = 5; round <= 8; ++round) {
    ApplyRound(round, 400, &control, &durable);
    DrainInto(&control, &control_stream);
    DrainInto(&durable, &healed_stream);
  }
  ASSERT_TRUE(control.Erase(3).ok());
  ASSERT_TRUE(durable.Erase(3).ok());
  DrainInto(&control, &control_stream);
  DrainInto(&durable, &healed_stream);

  ExpectSameStream(control_stream, healed_stream);
}

// In-place WAL reopen with live subscriptions: the store never moves, so
// the stream must continue seamlessly after the poison heals.
TEST_F(SubscriptionRecoveryTest, WalReopenHealPreservesEventStream) {
  // Only shard 1's WAL segments fault; the 25th append poisons it
  // (24 fleet inserts hit every shard, so the exact index is irrelevant —
  // the window is wide enough to catch one mid-run append).
  util::FaultPlan plan;
  plan.fail_appends_after = 10;
  plan.fail_appends_count = 1;
  util::FaultInjector injector(plan);
  auto faulty = injector.factory();

  ShardedModDatabaseOptions options = DurableOptions();
  options.durability.wal.file_factory =
      [faulty](const std::string& path)
      -> util::Result<std::unique_ptr<util::WritableFile>> {
    const bool shard1_wal = path.find("shard-0001") != std::string::npos &&
                            path.find("wal-") != std::string::npos;
    if (shard1_wal) return faulty(path);
    return util::DefaultWritableFileFactory()(path);
  };
  ShardedModDatabase control(&network_, BaseOptions());
  ShardedModDatabase durable(&network_, options);
  ASSERT_TRUE(durable.durability_status().ok());
  SubscribeAll(&control);
  SubscribeAll(&durable);
  LoadFleet(&control);
  LoadFleet(&durable);

  std::vector<std::string> control_stream;
  std::vector<std::string> healed_stream;
  DrainInto(&control, &control_stream);
  DrainInto(&durable, &healed_stream);

  // Drive rounds until the injected fault lands (a write to shard 1 fails
  // and quarantines it), healing and retrying the failed write so both
  // stores apply the identical mutation sequence.
  bool faulted = false;
  for (int round = 1; round <= 8; ++round) {
    util::Rng rng(700 + static_cast<std::uint64_t>(round));
    for (core::ObjectId id = 0; id < 24; ++id) {
      if (rng.Uniform() >= 0.5) continue;
      const auto update =
          Update(id, round * 2.0, rng.Uniform(0.0, 380.0),
                 rng.Uniform(0.0, 1.4));
      ASSERT_TRUE(control.ApplyUpdate(update).ok());
      util::Status status = durable.ApplyUpdate(update);
      if (!status.ok()) {
        // The injected WAL fault: shard 1 quarantined itself. Heal in
        // place and retry — in-memory state was never touched by the
        // failed write, so the retry is the same logical mutation.
        faulted = true;
        ASSERT_EQ(durable.shard_health(1), ShardHealth::kQuarantined);
        ASSERT_EQ(durable.ShardOf(id), 1u);
        ASSERT_TRUE(durable.supervisor().TryRecoverShard(1).ok());
        status = durable.ApplyUpdate(update);
      }
      ASSERT_TRUE(status.ok());
    }
    DrainInto(&control, &control_stream);
    DrainInto(&durable, &healed_stream);
  }
  ASSERT_TRUE(faulted) << "fault plan never fired; injected="
                       << injector.injected_faults();
  ExpectSameStream(control_stream, healed_stream);
}

// Restart recovery: construction replays the epoch chain with the engine
// already attached, and must emit zero events. Fresh subscriptions on the
// recovered store then behave exactly like fresh subscriptions on a store
// that reached the same state without ever restarting.
TEST_F(SubscriptionRecoveryTest, RestartReplayIsSilentAndStreamsContinue) {
  // Phase 1: populate a durable store (with live subscriptions, to prove
  // their registrations are not persisted), then close it.
  {
    ShardedModDatabase durable(&network_, DurableOptions());
    ASSERT_TRUE(durable.durability_status().ok());
    SubscribeAll(&durable);
    LoadFleet(&durable);
    ShardedModDatabase bootstrap_control(&network_, BaseOptions());
    LoadFleet(&bootstrap_control);
    for (int round = 1; round <= 3; ++round) {
      ApplyRound(round, 900, &durable, &bootstrap_control);
    }
    (void)durable.TakeSubscriptionEvents();
  }

  // Never-restarted control: same fleet state, built in memory.
  ShardedModDatabase control(&network_, BaseOptions());
  LoadFleet(&control);
  {
    ShardedModDatabase scratch(&network_, BaseOptions());
    LoadFleet(&scratch);
    for (int round = 1; round <= 3; ++round) {
      ApplyRound(round, 900, &control, &scratch);
    }
  }
  (void)control.TakeSubscriptionEvents();

  // Phase 2: reopen. Recovery replay runs with the engine attached and must
  // surface nothing; registrations start empty.
  ShardedModDatabase reopened(&network_, DurableOptions());
  ASSERT_TRUE(reopened.durability_status().ok());
  EXPECT_TRUE(reopened.TakeSubscriptionEvents().empty())
      << "recovery replay leaked transition events";
  EXPECT_EQ(reopened.num_subscriptions(), 0u)
      << "subscription registrations must not be persisted";
  EXPECT_EQ(reopened.num_objects(), control.num_objects());

  SubscribeAll(&control);
  SubscribeAll(&reopened);
  std::vector<std::string> control_stream;
  std::vector<std::string> reopened_stream;
  for (int round = 4; round <= 7; ++round) {
    ApplyRound(round, 900, &control, &reopened);
    DrainInto(&control, &control_stream);
    DrainInto(&reopened, &reopened_stream);
  }
  ASSERT_GT(control_stream.size(), 0u);
  ExpectSameStream(control_stream, reopened_stream);
}

}  // namespace
}  // namespace modb::db
