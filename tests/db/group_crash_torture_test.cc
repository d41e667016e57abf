#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "db/recovery.h"
#include "db/wal.h"
#include "geo/polygon.h"
#include "util/fault_injection.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

// Group-tracking crash torture: the scripted stream drives convoy
// formations, cohesion splits, leader-erase re-elections, and a dissolve
// through a durable store, then a power-loss sweep kills the WAL at every
// offset. The torture invariant extends the plain one: after recovery not
// just the record table but the *group membership* and the *query answers*
// must be byte-identical to the uncrashed control at the same prefix of
// the applied mutation stream — form/split transitions ride the
// `kGroupBatch` frames, erase cascades are replayed deterministically from
// `kErase`, and a torn tail frame must cost the whole batch, never leave a
// half-formed group behind.

/// One scripted operation against the convoy fleet.
struct Op {
  enum Kind {
    kInsert,      // insert `id` into the convoy lane
    kBatch,       // cohesive update batch for every alive member
    kDefect,      // `id` turns onto the cross route (cohesion split)
    kErase,       // erase `id` (leader re-election / dissolve cascade)
    kCheckpoint,  // snapshot (v5: persists membership) + epoch switch
  } kind = kBatch;
  core::ObjectId id = 0;
  double time = 0.0;
};

std::vector<Op> MakeScript() {
  std::vector<Op> ops;
  double t = 0.0;
  const auto next = [&t] { return t += 1.0; };
  for (core::ObjectId i = 1; i <= 6; ++i) ops.push_back({Op::kInsert, i, 0.0});
  ops.push_back({Op::kBatch, 0, next()});   // formation
  ops.push_back({Op::kBatch, 0, next()});   // cohesive follow-up
  ops.push_back({Op::kDefect, 6, next()});  // split: member leaves
  ops.push_back({Op::kBatch, 0, next()});
  ops.push_back({Op::kErase, 1, 0.0});  // leader erase: re-election
  ops.push_back({Op::kCheckpoint, 0, 0.0});
  ops.push_back({Op::kBatch, 0, next()});
  ops.push_back({Op::kDefect, 5, next()});  // down to 3 members
  ops.push_back({Op::kDefect, 4, next()});  // below min size: dissolve
  ops.push_back({Op::kBatch, 0, next()});
  return ops;
}

class GroupCrashTortureTest : public testing::Test {
 protected:
  GroupCrashTortureTest() {
    lane_ = network_.AddStraightRoute({0.0, 0.0}, {200.0, 0.0}, "lane");
    cross_ = network_.AddStraightRoute({0.0, 0.0}, {0.0, 200.0}, "cross");
    script_ = MakeScript();
  }

  void SetUp() override {
    root_ = (fs::path(testing::TempDir()) /
             ("group_crash_torture_" +
              std::string(testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  static ModDatabaseOptions TrackingOptions() {
    ModDatabaseOptions options;
    options.index_kind = IndexKind::kTimeSpaceRTree;  // the envelope kind
    options.group_tracking.enabled = true;
    return options;
  }

  core::PositionUpdate Update(core::ObjectId id, double time,
                              geo::RouteId route, double s) const {
    core::PositionUpdate update;
    update.object = id;
    update.time = time;
    update.route = route;
    update.route_distance = s;
    update.position = network_.route(route).PointAt(s);
    update.direction = core::TravelDirection::kForward;
    update.speed = 1.0;
    return update;
  }

  /// Applies `op`, tracking the alive-and-cohesive member set so the
  /// scripted stream is identical on every life.
  util::Status ApplyOp(ModDatabase* db, const Op& op,
                       std::vector<core::ObjectId>* members) const {
    switch (op.kind) {
      case Op::kInsert: {
        const double s = 0.5 * static_cast<double>(op.id);
        core::PositionAttribute attr;
        attr.start_time = 0.0;
        attr.route = lane_;
        attr.start_route_distance = s;
        attr.start_position = network_.route(lane_).PointAt(s);
        attr.direction = core::TravelDirection::kForward;
        attr.speed = 1.0;
        attr.update_cost = 5.0;
        attr.max_speed = 1.5;
        attr.policy = core::PolicyKind::kCurrentImmediateLinear;
        members->push_back(op.id);
        return db->Insert(op.id, "v" + std::to_string(op.id), attr);
      }
      case Op::kBatch: {
        std::vector<core::PositionUpdate> updates;
        for (core::ObjectId id : *members) {
          updates.push_back(Update(id, op.time, lane_,
                                   op.time + 0.5 * static_cast<double>(id)));
        }
        return db->ApplyUpdateBatch(updates).first_error();
      }
      case Op::kDefect:
        members->erase(
            std::remove(members->begin(), members->end(), op.id),
            members->end());
        return db->ApplyUpdate(Update(op.id, op.time, cross_, 10.0));
      case Op::kErase:
        members->erase(
            std::remove(members->begin(), members->end(), op.id),
            members->end());
        return db->Erase(op.id);
      case Op::kCheckpoint:
        return util::Status::Internal("checkpoint is not a db op");
    }
    return util::Status::Internal("unreachable");
  }

  /// Records + membership + answers in one bit-exact fingerprint.
  std::string Signature(const ModDatabase& db) const {
    std::ostringstream out;
    out << std::hexfloat;
    std::map<core::ObjectId, std::string> rows;
    db.ForEachRecord([&](const MovingObjectRecord& record) {
      std::ostringstream row;
      row << std::hexfloat << record.attr.start_time << ' '
          << record.attr.route << ' ' << record.attr.start_route_distance
          << ' ' << record.attr.speed;
      rows[record.id] = row.str();
    });
    for (const auto& [id, row] : rows) out << id << ':' << row << '\n';
    out << "groups next=" << db.group_next_id() << '\n';
    for (const PersistedGroup& g : db.ExportGroups()) {
      out << g.id << " leader=" << g.leader << " v=" << g.model.speed
          << " t0=" << g.model.anchor_time << " s0=" << g.model.anchor_distance
          << " lo=" << g.model.window_lo << " hi=" << g.model.window_hi
          << " members=";
      for (core::ObjectId m : g.members) out << m << ',';
      out << '\n';
    }
    for (const double t : {2.0, 8.0}) {
      const RangeAnswer range =
          db.QueryRange(geo::Polygon::Rectangle(1.0, -1.0, 40.0, 1.0), t);
      out << "R" << t << " must=";
      for (core::ObjectId id : range.must) out << id << ',';
      out << " may=";
      for (std::size_t i = 0; i < range.may.size(); ++i) {
        out << range.may[i] << '@' << range.may_probability[i] << ',';
      }
      out << '\n';
      const NearestAnswer near = db.QueryNearest({10.0, 0.0}, 3, t);
      out << "N" << t << ' ';
      for (const NearestAnswer::Item& item : near.items) {
        out << item.id << '@' << item.db_distance << '/'
            << item.min_possible_distance << '/'
            << item.max_possible_distance << ' ';
      }
      out << '\n';
    }
    return out.str();
  }

  DurabilityOptions TortureOptions() const {
    DurabilityOptions options;
    options.wal.segment_max_bytes = 512;  // force rotations mid-script
    return options;
  }

  geo::RouteNetwork network_;
  geo::RouteId lane_ = geo::kInvalidRouteId;
  geo::RouteId cross_ = geo::kInvalidRouteId;
  std::vector<Op> script_;
  std::string root_;
};

TEST_F(GroupCrashTortureTest, PowerLossSweepRecoversExactGroupPrefix) {
  // Clean control run: signature after every mutation.
  std::vector<std::string> signatures;
  std::size_t records_at_checkpoint = 0;
  bool saw_groups = false;
  {
    ModDatabase db(&network_, TrackingOptions());
    auto manager =
        DurabilityManager::Open(&db, root_ + "/clean", TortureOptions());
    ASSERT_TRUE(manager.ok()) << manager.status().message();
    std::vector<core::ObjectId> members;
    signatures.push_back(Signature(db));
    for (const Op& op : script_) {
      if (op.kind == Op::kCheckpoint) {
        records_at_checkpoint = signatures.size() - 1;
        ASSERT_TRUE((*manager)->Checkpoint().ok());
        continue;
      }
      ASSERT_TRUE(ApplyOp(&db, op, &members).ok());
      saw_groups = saw_groups || db.group_tracker().num_groups() > 0;
      signatures.push_back(Signature(db));
    }
    // The script must exercise the machinery it claims to torture.
    ASSERT_TRUE(saw_groups);
    ASSERT_EQ(db.group_tracker().num_groups(), 0u);  // ends dissolved
  }
  std::uint64_t total_wal_bytes = 0;
  for (const WalSegmentInfo& seg : ListWalSegments(root_ + "/clean")) {
    total_wal_bytes += *util::FileSize(seg.path);
  }
  ASSERT_GT(total_wal_bytes, 0u);
  ASSERT_GT(records_at_checkpoint, 0u);

  for (std::uint64_t crash_at = 0; crash_at < total_wal_bytes;
       crash_at += 11) {
    SCOPED_TRACE("crash after " + std::to_string(crash_at) + " WAL bytes");
    const std::string dir = root_ + "/crash";
    fs::remove_all(dir);

    util::FaultPlan plan;
    plan.crash_after_bytes = crash_at;
    util::FaultInjector injector(plan);
    DurabilityOptions faulty = TortureOptions();
    faulty.wal.file_factory = injector.factory();

    std::size_t applied = 0;
    bool checkpointed = false;
    {
      ModDatabase db(&network_, TrackingOptions());
      auto manager = DurabilityManager::Open(&db, dir, faulty);
      ASSERT_TRUE(manager.ok()) << manager.status().message();
      std::vector<core::ObjectId> members;
      for (const Op& op : script_) {
        util::Status s = op.kind == Op::kCheckpoint
                             ? (*manager)->Checkpoint()
                             : ApplyOp(&db, op, &members);
        if (!s.ok()) {
          ASSERT_TRUE(injector.crashed()) << s.message();
          break;
        }
        if (op.kind == Op::kCheckpoint) {
          checkpointed = true;
        } else {
          ++applied;
        }
      }
    }

    auto recovered = Recover(dir, TortureOptions());
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    // Byte-identical to the uncrashed control at the same prefix: records,
    // group membership, and MUST/MAY/nearest answers.
    EXPECT_EQ(Signature(*recovered->database), signatures[applied]);
    if (checkpointed) {
      EXPECT_GE(applied, records_at_checkpoint);
    }
  }
}

TEST_F(GroupCrashTortureTest, RepeatedCrashRecoverCyclesKeepMembership) {
  // Crash, recover, continue the convoy script on the recovered store —
  // group state never regresses or forks from the control across lives.
  std::vector<std::string> signatures;
  {
    ModDatabase db(&network_, TrackingOptions());
    auto manager =
        DurabilityManager::Open(&db, root_ + "/reference", TortureOptions());
    ASSERT_TRUE(manager.ok());
    std::vector<core::ObjectId> members;
    signatures.push_back(Signature(db));
    for (const Op& op : script_) {
      if (op.kind == Op::kCheckpoint) {
        ASSERT_TRUE((*manager)->Checkpoint().ok());
        continue;
      }
      ASSERT_TRUE(ApplyOp(&db, op, &members).ok());
      signatures.push_back(Signature(db));
    }
  }

  const std::string dir = root_ + "/cycles";
  std::size_t applied = 0;
  std::size_t script_pos = 0;
  int crashes = 0;
  // Replays the member bookkeeping up to `script_pos` so every life's
  // stream matches the control's.
  const auto members_at = [this](std::size_t pos) {
    std::vector<core::ObjectId> members;
    for (std::size_t i = 0; i < pos; ++i) {
      const Op& op = script_[i];
      if (op.kind == Op::kInsert) members.push_back(op.id);
      if (op.kind == Op::kDefect || op.kind == Op::kErase) {
        members.erase(std::remove(members.begin(), members.end(), op.id),
                      members.end());
      }
    }
    return members;
  };
  while (script_pos < script_.size()) {
    util::FaultPlan plan;
    plan.crash_after_bytes = 100 + 170 * crashes;
    util::FaultInjector injector(plan);
    DurabilityOptions faulty = TortureOptions();
    faulty.wal.file_factory = injector.factory();

    auto recovered = Recover(dir, faulty);
    std::unique_ptr<ModDatabase> owned;
    std::unique_ptr<DurabilityManager> manager;
    ModDatabase* db = nullptr;
    if (recovered.ok()) {
      ASSERT_EQ(Signature(*recovered->database), signatures[applied]);
      db = recovered->database.get();
    } else {
      owned = std::make_unique<ModDatabase>(&network_, TrackingOptions());
      auto opened = DurabilityManager::Open(owned.get(), dir, faulty);
      ASSERT_TRUE(opened.ok()) << opened.status().message();
      manager = std::move(*opened);
      db = owned.get();
    }

    std::vector<core::ObjectId> members = members_at(script_pos);
    while (script_pos < script_.size()) {
      const Op& op = script_[script_pos];
      util::Status s;
      if (op.kind == Op::kCheckpoint) {
        s = recovered.ok() ? recovered->durability->Checkpoint()
                           : manager->Checkpoint();
      } else {
        s = ApplyOp(db, op, &members);
      }
      if (!s.ok()) {
        ASSERT_TRUE(injector.crashed()) << s.message();
        ++crashes;
        break;
      }
      ++script_pos;
      if (op.kind != Op::kCheckpoint) ++applied;
    }
  }
  EXPECT_GT(crashes, 0) << "the plan never fired; weaken crash_after_bytes";
  auto final_state = Recover(dir, TortureOptions());
  ASSERT_TRUE(final_state.ok());
  EXPECT_EQ(Signature(*final_state->database), signatures.back());
}

}  // namespace
}  // namespace modb::db
