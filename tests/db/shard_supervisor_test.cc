// Tests of the failure-domain layer: the ShardSupervisor state machine and
// backoff loop in isolation, then wired into ShardedModDatabase — write
// rejection on quarantined shards, partial-read completeness, and both
// remediation flavours (WAL reopen in place, full re-recovery swap).

#include "db/shard_supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "db/sharded_database.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

ShardSupervisorOptions ManualOptions() {
  ShardSupervisorOptions options;
  options.auto_remediate = false;  // tests step the machine themselves
  options.retry.initial_delay_ms = 1;
  options.retry.max_delay_ms = 8;
  return options;
}

TEST(ShardSupervisorTest, StartsHealthyEverywhere) {
  ShardSupervisor sup(4, ManualOptions(), nullptr);
  EXPECT_EQ(sup.num_shards(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(sup.health(s), ShardHealth::kHealthy);
    EXPECT_TRUE(sup.writable(s));
    EXPECT_TRUE(sup.readable(s));
    EXPECT_TRUE(sup.reason(s).ok());
  }
  EXPECT_EQ(sup.num_unavailable(), 0u);
  EXPECT_TRUE(sup.UnavailableShards().empty());
  EXPECT_TRUE(sup.AwaitAllAvailable(milliseconds(0)));
}

TEST(ShardSupervisorTest, FaultQuarantinesAndKeepsFirstReason) {
  ShardSupervisor sup(3, ManualOptions(), nullptr);
  sup.ReportFault(1, util::Status::Internal("wal torn"));
  EXPECT_EQ(sup.health(1), ShardHealth::kQuarantined);
  EXPECT_FALSE(sup.writable(1));
  EXPECT_FALSE(sup.readable(1));
  EXPECT_EQ(sup.reason(1).message(), "wal torn");
  // A second fault on a downed shard must not overwrite the root cause.
  sup.ReportFault(1, util::Status::Internal("cascading noise"));
  EXPECT_EQ(sup.reason(1).message(), "wal torn");
  // Other shards are untouched — that is the whole point of the domain.
  EXPECT_EQ(sup.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(sup.health(2), ShardHealth::kHealthy);
  EXPECT_EQ(sup.UnavailableShards(), (std::vector<std::size_t>{1}));
  EXPECT_FALSE(sup.AwaitAllAvailable(milliseconds(1)));
}

TEST(ShardSupervisorTest, UnavailableStatusNamesShardReasonAndHint) {
  ShardSupervisorOptions options = ManualOptions();
  options.retry.initial_delay_ms = 60000;  // hint clearly nonzero
  options.retry.jitter_fraction = 0.0;
  ShardSupervisor sup(2, options, nullptr);
  sup.ReportFault(1, util::Status::Internal("disk on fire"));
  const util::Status status = sup.UnavailableStatus(1);
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("shard 1"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("disk on fire"), std::string::npos)
      << status.message();
  const auto pos = status.message().find("retry_after_ms=");
  ASSERT_NE(pos, std::string::npos) << status.message();
  const long hint =
      std::stol(status.message().substr(pos + std::string("retry_after_ms=").size()));
  EXPECT_GT(hint, 0);
  EXPECT_LE(hint, 60000);
}

TEST(ShardSupervisorTest, DegradedIsSoftAndClearable) {
  ShardSupervisor sup(2, ManualOptions(), nullptr);
  sup.ReportDegraded(0, util::Status::Internal("unclean recovery"));
  EXPECT_EQ(sup.health(0), ShardHealth::kDegraded);
  // Degraded shards still serve reads and writes.
  EXPECT_TRUE(sup.writable(0));
  EXPECT_TRUE(sup.readable(0));
  EXPECT_EQ(sup.num_unavailable(), 0u);
  // Degrading again does not escalate; clearing restores healthy.
  sup.ReportDegraded(0, util::Status::Internal("again"));
  EXPECT_EQ(sup.reason(0).message(), "unclean recovery");
  sup.ClearDegraded(0);
  EXPECT_EQ(sup.health(0), ShardHealth::kHealthy);
  EXPECT_TRUE(sup.reason(0).ok());
  // A hard fault escalates a degraded shard...
  sup.ReportDegraded(1, util::Status::Internal("soft"));
  sup.ReportFault(1, util::Status::Internal("hard"));
  EXPECT_EQ(sup.health(1), ShardHealth::kQuarantined);
  EXPECT_EQ(sup.reason(1).message(), "hard");
  // ...and neither the soft nor the clear path touches a quarantined one.
  sup.ReportDegraded(1, util::Status::Internal("soft again"));
  sup.ClearDegraded(1);
  EXPECT_EQ(sup.health(1), ShardHealth::kQuarantined);
}

TEST(ShardSupervisorTest, ManualRecoveryStepsTheMachine) {
  ShardSupervisor sup(2, ManualOptions(), nullptr);
  std::atomic<int> attempts{0};
  std::atomic<bool> heal{false};
  sup.Start([&](std::size_t shard) {
    EXPECT_EQ(shard, 0u);
    ++attempts;
    return heal.load() ? util::Status::Ok()
                       : util::Status::Internal("still broken");
  });

  // Nothing to recover on a healthy shard.
  EXPECT_EQ(sup.TryRecoverShard(0).code(),
            util::StatusCode::kFailedPrecondition);

  sup.ReportFault(0, util::Status::Internal("fault"));
  EXPECT_FALSE(sup.TryRecoverShard(0).ok());
  EXPECT_EQ(attempts.load(), 1);
  EXPECT_EQ(sup.health(0), ShardHealth::kQuarantined)
      << "failed attempt returns to quarantined";
  EXPECT_EQ(sup.reason(0).message(), "fault") << "root cause survives retries";

  heal = true;
  EXPECT_TRUE(sup.TryRecoverShard(0).ok());
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(sup.health(0), ShardHealth::kHealthy);
  EXPECT_TRUE(sup.reason(0).ok());
  EXPECT_TRUE(sup.AwaitAllAvailable(milliseconds(0)));
}

TEST(ShardSupervisorTest, AutoRemediateLoopHealsFlakyShard) {
  ShardSupervisorOptions options;
  options.retry.initial_delay_ms = 1;
  options.retry.max_delay_ms = 4;
  util::MetricsRegistry metrics;
  ShardSupervisor sup(2, options, &metrics);
  std::atomic<int> attempts{0};
  sup.Start([&](std::size_t) {
    // Two failures, then the third attempt heals.
    return ++attempts < 3 ? util::Status::Internal("transient")
                          : util::Status::Ok();
  });

  sup.ReportFault(1, util::Status::Internal("chaos"));
  EXPECT_TRUE(sup.AwaitAllAvailable(milliseconds(10000)))
      << "loop never re-admitted the shard; attempts=" << attempts.load();
  EXPECT_EQ(sup.health(1), ShardHealth::kHealthy);
  EXPECT_GE(attempts.load(), 3);
  EXPECT_EQ(metrics.GetCounter("shard.quarantine_total")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("shard.recoveries")->value(), 1u);
  EXPECT_GE(metrics.GetCounter("shard.recovery_failures")->value(), 2u);
  EXPECT_EQ(metrics.GetGauge("shard.quarantined")->value(), 0);
  sup.Stop();
}

TEST(ShardSupervisorTest, MetricsTrackStateAndDurations) {
  util::MetricsRegistry metrics;
  ShardSupervisor sup(2, ManualOptions(), &metrics);
  sup.Start([](std::size_t) { return util::Status::Ok(); });
  EXPECT_EQ(metrics.GetGauge("sharded.shard0.state")->value(), 0);

  sup.ReportFault(0, util::Status::Internal("x"));
  EXPECT_EQ(metrics.GetGauge("sharded.shard0.state")->value(),
            static_cast<std::int64_t>(ShardHealth::kQuarantined));
  EXPECT_EQ(metrics.GetGauge("shard.quarantined")->value(), 1);

  ASSERT_TRUE(sup.TryRecoverShard(0).ok());
  EXPECT_EQ(metrics.GetGauge("sharded.shard0.state")->value(), 0);
  EXPECT_EQ(metrics.GetGauge("shard.quarantined")->value(), 0);
  EXPECT_EQ(metrics.GetLatency("shard.quarantine_duration")->count(), 1u);
  EXPECT_EQ(metrics.GetLatency("shard.recovery_duration")->count(), 1u);
}

TEST(ShardSupervisorTest, ConcurrentFaultsAndRecoveriesStayConsistent) {
  ShardSupervisorOptions options;
  options.retry.initial_delay_ms = 1;
  options.retry.max_delay_ms = 2;
  ShardSupervisor sup(4, options, nullptr);
  sup.Start([](std::size_t) { return util::Status::Ok(); });

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sup, t] {
      for (int i = 0; i < 50; ++i) {
        const std::size_t shard = static_cast<std::size_t>((t + i) % 4);
        sup.ReportFault(shard, util::Status::Internal("storm"));
        (void)sup.TryRecoverShard(shard);
        (void)sup.health(shard);
        (void)sup.UnavailableShards();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(sup.AwaitAllAvailable(milliseconds(10000)));
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(sup.health(s), ShardHealth::kHealthy) << "shard " << s;
    EXPECT_TRUE(sup.reason(s).ok());
  }
  sup.Stop();
}

// ---------------------------------------------------------------------------
// Integration with ShardedModDatabase.

class ShardFailureDomainTest : public testing::Test {
 protected:
  ShardFailureDomainTest() {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {400.0, 0.0}, "street");
  }

  void SetUp() override {
    dir_ = (fs::path(testing::TempDir()) /
            ("shard_failure_" +
             std::string(testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  core::PositionAttribute Attr(double s, double v = 1.0) const {
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

  core::PositionUpdate Update(core::ObjectId id, core::Time t,
                              double s) const {
    core::PositionUpdate update;
    update.object = id;
    update.time = t;
    update.route = street_;
    update.route_distance = s;
    update.position = network_.route(street_).PointAt(s);
    update.direction = core::TravelDirection::kForward;
    update.speed = 1.0;
    return update;
  }

  /// First `n` object ids owned by shard `shard` of `db`.
  static std::vector<core::ObjectId> IdsOnShard(const ShardedModDatabase& db,
                                                std::size_t shard,
                                                std::size_t n) {
    std::vector<core::ObjectId> ids;
    for (core::ObjectId id = 0; ids.size() < n && id < 100000; ++id) {
      if (db.ShardOf(id) == shard) ids.push_back(id);
    }
    return ids;
  }

  static geo::Polygon WholeStreet() {
    return geo::Polygon::Rectangle(-10.0, -10.0, 410.0, 10.0);
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  std::string dir_;
};

ShardedModDatabaseOptions InMemoryManual() {
  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 0;  // inline fan-out: deterministic
  options.supervisor.auto_remediate = false;
  return options;
}

TEST_F(ShardFailureDomainTest, QuarantinedShardRejectsWritesOthersServe) {
  ShardedModDatabase db(&network_, InMemoryManual());
  const auto sick = IdsOnShard(db, 2, 2);
  const auto well = IdsOnShard(db, 0, 2);
  ASSERT_TRUE(db.Insert(sick[0], "s0", Attr(10.0)).ok());
  ASSERT_TRUE(db.Insert(well[0], "w0", Attr(20.0)).ok());

  db.supervisor().ReportFault(2, util::Status::Internal("operator fault"));
  EXPECT_EQ(db.shard_health(2), ShardHealth::kQuarantined);

  // Every write form routed at shard 2 is refused with the typed status.
  const util::Status insert = db.Insert(sick[1], "s1", Attr(30.0));
  EXPECT_EQ(insert.code(), util::StatusCode::kUnavailable);
  EXPECT_NE(insert.message().find("retry_after_ms="), std::string::npos);
  EXPECT_EQ(db.ApplyUpdate(Update(sick[0], 1.0, 11.0)).code(),
            util::StatusCode::kUnavailable);
  EXPECT_EQ(db.Erase(sick[0]).code(), util::StatusCode::kUnavailable);
  // Point reads of quarantined objects are refused too (the store may be
  // mid-swap during remediation).
  EXPECT_EQ(db.QueryPosition(sick[0], 1.0).status().code(),
            util::StatusCode::kUnavailable);
  EXPECT_EQ(db.GetRecord(sick[0]).status().code(),
            util::StatusCode::kUnavailable);

  // The surviving shards never notice.
  EXPECT_TRUE(db.Insert(well[1], "w1", Attr(40.0)).ok());
  EXPECT_TRUE(db.ApplyUpdate(Update(well[0], 1.0, 21.0)).ok());
  EXPECT_TRUE(db.QueryPosition(well[0], 1.0).ok());
}

TEST_F(ShardFailureDomainTest, BatchWritesRejectOnlyTheQuarantinedSlice) {
  ShardedModDatabase db(&network_, InMemoryManual());
  const auto sick = IdsOnShard(db, 1, 1);
  const auto well = IdsOnShard(db, 3, 1);
  ASSERT_TRUE(db.Insert(sick[0], "s", Attr(10.0)).ok());
  ASSERT_TRUE(db.Insert(well[0], "w", Attr(20.0)).ok());
  db.supervisor().ReportFault(1, util::Status::Internal("fault"));

  std::vector<core::PositionUpdate> updates = {Update(sick[0], 1.0, 11.0),
                                               Update(well[0], 1.0, 21.0)};
  const UpdateBatchResult result = db.ApplyUpdateBatch(updates);
  EXPECT_EQ(result.statuses[0].code(), util::StatusCode::kUnavailable);
  EXPECT_TRUE(result.statuses[1].ok());

  // BulkInsert is all-or-nothing, so one quarantined target fails the lot
  // and leaves the store unchanged.
  std::vector<ShardedModDatabase::BulkObject> bulk;
  const auto more_sick = IdsOnShard(db, 1, 2);
  bulk.push_back({more_sick[1], "x", Attr(30.0)});
  const std::size_t before = db.num_objects();
  EXPECT_EQ(db.BulkInsert(std::move(bulk)).code(),
            util::StatusCode::kUnavailable);
  EXPECT_EQ(db.num_objects(), before);
}

TEST_F(ShardFailureDomainTest, FanOutAnswersTurnPartialNotWrong) {
  ShardedModDatabase db(&network_, InMemoryManual());
  std::vector<core::ObjectId> on_sick;
  for (core::ObjectId id = 0; id < 40; ++id) {
    ASSERT_TRUE(db.Insert(id, "o", Attr(5.0 + 2.0 * id)).ok());
    if (db.ShardOf(id) == 3) on_sick.push_back(id);
  }
  ASSERT_FALSE(on_sick.empty());
  const geo::Polygon region = WholeStreet();

  const RangeAnswer healthy = db.QueryRange(region, 0.0);
  EXPECT_TRUE(healthy.completeness.complete);
  EXPECT_TRUE(healthy.completeness.excluded_shards.empty());

  db.supervisor().ReportFault(3, util::Status::Internal("fault"));
  const RangeAnswer partial = db.QueryRange(region, 0.0);
  EXPECT_FALSE(partial.completeness.complete);
  EXPECT_EQ(partial.completeness.excluded_shards,
            (std::vector<std::size_t>{3}));
  // The partial MUST set is exactly the healthy MUST set minus shard 3's
  // objects: sound for every object it still speaks for.
  std::vector<core::ObjectId> expected;
  for (core::ObjectId id : healthy.must) {
    if (db.ShardOf(id) != 3) expected.push_back(id);
  }
  EXPECT_EQ(partial.must, expected);

  // Nearest and interval answers carry the same record.
  const NearestAnswer nearest = db.QueryNearest({100.0, 0.0}, 5, 0.0);
  EXPECT_FALSE(nearest.completeness.complete);
  for (const auto& item : nearest.items) {
    EXPECT_NE(db.ShardOf(item.id), 3u);
  }
  const IntervalRangeAnswer window = db.QueryRangeInterval(region, 0.0, 5.0);
  EXPECT_FALSE(window.completeness.complete);
  EXPECT_EQ(window.completeness.excluded_shards,
            (std::vector<std::size_t>{3}));
}

TEST_F(ShardFailureDomainTest, WalPoisonQuarantinesAndReopenHealsInPlace) {
  // Chaos is routed per shard: only shard 1's WAL files fail, so the test
  // is deterministic regardless of fan-out interleaving.
  util::FaultPlan plan;
  plan.fail_appends_after = 3;  // setup makes 3 appends to shard 1
  plan.fail_appends_count = 1;
  util::FaultInjector injector(plan);
  auto faulty = injector.factory();

  ShardedModDatabaseOptions options = InMemoryManual();
  options.durable_dir = dir_;
  options.durability.wal.sync_every_append = true;
  options.durability.wal.file_factory =
      [faulty](const std::string& path)
      -> util::Result<std::unique_ptr<util::WritableFile>> {
    const bool shard1_wal = path.find("shard-0001") != std::string::npos &&
                            path.find("wal-") != std::string::npos;
    if (shard1_wal) return faulty(path);
    return util::DefaultWritableFileFactory()(path);
  };
  ShardedModDatabase db(&network_, options);
  ASSERT_TRUE(db.durability_status().ok());

  const auto sick = IdsOnShard(db, 1, 3);
  const auto well = IdsOnShard(db, 0, 1);
  ASSERT_TRUE(db.Insert(sick[0], "a", Attr(10.0)).ok());  // append 0
  ASSERT_TRUE(db.Insert(sick[1], "b", Attr(20.0)).ok());  // append 1
  ASSERT_TRUE(db.Insert(sick[2], "c", Attr(30.0)).ok());  // append 2
  ASSERT_TRUE(db.Insert(well[0], "w", Attr(40.0)).ok());

  // Append 3 hits the fault window: the write fails, the WAL is poisoned,
  // and the shard quarantines itself — with the epoch + segment in the
  // recorded reason.
  const util::Status failed = db.ApplyUpdate(Update(sick[0], 1.0, 11.0));
  EXPECT_FALSE(failed.ok());
  ASSERT_EQ(injector.injected_append_faults(), 1u) << "plan never fired";
  ASSERT_EQ(db.shard_health(1), ShardHealth::kQuarantined);
  const std::string reason(db.supervisor().reason(1).message());
  EXPECT_NE(reason.find("wal epoch"), std::string::npos) << reason;
  EXPECT_NE(reason.find("wal-"), std::string::npos) << reason;

  // Further writes to the quarantined shard are refused with the typed
  // status while the rest of the fleet keeps serving.
  EXPECT_EQ(db.ApplyUpdate(Update(sick[1], 1.0, 21.0)).code(),
            util::StatusCode::kUnavailable);
  EXPECT_TRUE(db.ApplyUpdate(Update(well[0], 1.0, 41.0)).ok());

  // Manual remediation (flavour 1): reopen the WAL in place, checkpoint,
  // re-admit. The in-memory state never moved, so nothing is lost.
  ASSERT_TRUE(db.supervisor().TryRecoverShard(1).ok());
  EXPECT_EQ(db.shard_health(1), ShardHealth::kHealthy);
  EXPECT_TRUE(db.supervisor().reason(1).ok());

  // The failed update can now be retried, and durability is live again.
  ASSERT_TRUE(db.ApplyUpdate(Update(sick[0], 1.0, 11.0)).ok());
  const auto record = db.GetRecord(sick[0]);
  ASSERT_TRUE(record.ok());
  EXPECT_DOUBLE_EQ(record->attr.start_route_distance, 11.0);
  const RangeAnswer all = db.QueryRange(WholeStreet(), 1.0);
  EXPECT_TRUE(all.completeness.complete);
  EXPECT_EQ(all.must.size() + 0u, db.num_objects());
}

TEST_F(ShardFailureDomainTest, FullReRecoverySwapRestoresDurableState) {
  ShardedModDatabaseOptions options = InMemoryManual();
  options.durable_dir = dir_;
  options.durability.wal.sync_every_append = true;
  ShardedModDatabase db(&network_, options);
  ASSERT_TRUE(db.durability_status().ok());

  const auto sick = IdsOnShard(db, 2, 2);
  ASSERT_TRUE(db.Insert(sick[0], "a", Attr(10.0)).ok());
  ASSERT_TRUE(db.Insert(sick[1], "b", Attr(20.0)).ok());
  ASSERT_TRUE(db.ApplyUpdate(Update(sick[0], 1.0, 12.0)).ok());

  // An operator fault with a healthy WAL takes the re-recovery flavour:
  // replay the shard's durable home into a fresh store and swap it in.
  db.supervisor().ReportFault(2, util::Status::Internal("operator"));
  ASSERT_TRUE(db.supervisor().TryRecoverShard(2).ok());
  EXPECT_EQ(db.shard_health(2), ShardHealth::kHealthy);

  const auto a = db.GetRecord(sick[0]);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->label, "a");
  EXPECT_DOUBLE_EQ(a->attr.start_route_distance, 12.0);
  const auto b = db.GetRecord(sick[1]);
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(b->attr.start_route_distance, 20.0);
  // And the swapped-in shard accepts writes again.
  EXPECT_TRUE(db.ApplyUpdate(Update(sick[1], 2.0, 22.0)).ok());
}

TEST_F(ShardFailureDomainTest, InMemoryShardHasNoDurableHomeToRecover) {
  ShardedModDatabase db(&network_, InMemoryManual());
  db.supervisor().ReportFault(0, util::Status::Internal("fault"));
  const util::Status status = db.supervisor().TryRecoverShard(0);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.shard_health(0), ShardHealth::kQuarantined)
      << "an unrecoverable shard stays quarantined, not half-open";
}

TEST_F(ShardFailureDomainTest, ConcurrentWritersDuringQuarantineAndHeal) {
  ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 2;
  options.durable_dir = dir_;
  options.supervisor.retry.initial_delay_ms = 1;
  options.supervisor.retry.max_delay_ms = 4;
  ShardedModDatabase db(&network_, options);
  ASSERT_TRUE(db.durability_status().ok());
  for (core::ObjectId id = 0; id < 32; ++id) {
    ASSERT_TRUE(db.Insert(id, "o", Attr(5.0 + id)).ok());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      double time = 1.0;
      while (!stop.load()) {
        for (core::ObjectId id = static_cast<core::ObjectId>(t); id < 32;
             id += 3) {
          // Unavailable is an acceptable (typed) outcome mid-quarantine.
          (void)db.ApplyUpdate(Update(id, time, 5.0 + id));
          (void)db.QueryRange(WholeStreet(), time);
        }
        time += 1.0;
      }
    });
  }

  for (int round = 0; round < 5; ++round) {
    db.supervisor().ReportFault(static_cast<std::size_t>(round % 4),
                                util::Status::Internal("storm"));
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_TRUE(db.supervisor().AwaitAllAvailable(milliseconds(20000)));
  stop = true;
  for (std::thread& t : writers) t.join();

  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(db.shard_health(s), ShardHealth::kHealthy) << "shard " << s;
  }
  EXPECT_EQ(db.num_objects(), 32u);
  EXPECT_TRUE(db.QueryRange(WholeStreet(), 100.0).completeness.complete);
}

}  // namespace
}  // namespace modb::db
