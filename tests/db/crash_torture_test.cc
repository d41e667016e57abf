#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "db/recovery.h"
#include "db/wal.h"
#include "reopen.h"
#include "util/fault_injection.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

// The torture invariant: crash anywhere, recover, and the store equals the
// state after some prefix of the *successfully applied* mutation stream —
// never a crash, never a torn half-mutation, never data older than the
// last checkpoint. Each sweep below injects a different failure (power
// loss at a byte offset, bit rot, a truncated tail) at every interesting
// position of the log.

/// One scripted operation.
struct Op {
  enum Kind { kInsert, kUpdate, kErase, kCheckpoint } kind = kUpdate;
  core::ObjectId id = 0;
  double time = 0.0;
};

std::vector<Op> MakeScript() {
  std::vector<Op> ops;
  double t = 1.0;
  const auto next = [&t] { return t += 0.25; };
  for (core::ObjectId i = 1; i <= 5; ++i) {
    ops.push_back({Op::kInsert, i, next()});
  }
  for (int round = 0; round < 3; ++round) {
    for (core::ObjectId i = 1; i <= 5; ++i) {
      ops.push_back({Op::kUpdate, i, next()});
    }
  }
  ops.push_back({Op::kErase, 2, next()});
  ops.push_back({Op::kCheckpoint, 0, 0.0});
  for (int round = 0; round < 3; ++round) {
    for (core::ObjectId i : {1, 3, 4, 5}) {
      ops.push_back({Op::kUpdate, i, next()});
    }
  }
  ops.push_back({Op::kErase, 5, next()});
  ops.push_back({Op::kInsert, 6, next()});
  ops.push_back({Op::kUpdate, 6, next()});
  return ops;
}

/// Order-independent bit-exact fingerprint of the object table. Excludes
/// the per-object update counters, which checkpoints do not persist.
std::string Signature(const ModDatabase& db) {
  std::map<core::ObjectId, std::string> rows;
  db.ForEachRecord([&](const MovingObjectRecord& record) {
    std::ostringstream row;
    row << std::hexfloat << record.label << ' ' << record.attr.start_time
        << ' ' << record.attr.route << ' ' << record.attr.start_route_distance
        << ' ' << record.attr.start_position.x << ' '
        << record.attr.start_position.y << ' '
        << static_cast<int>(record.attr.direction) << ' ' << record.attr.speed
        << ' ' << record.past.size();
    rows[record.id] = row.str();
  });
  std::string signature;
  for (const auto& [id, row] : rows) {
    signature += std::to_string(id) + ':' + row + '\n';
  }
  return signature;
}

class CrashTortureTest : public testing::Test {
 protected:
  CrashTortureTest() {
    main_ = network_.AddStraightRoute({0.0, 0.0}, {200.0, 0.0}, "main st");
    script_ = MakeScript();
  }

  void SetUp() override {
    root_ = (fs::path(testing::TempDir()) /
             ("crash_torture_" +
              std::string(testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  util::Status ApplyOp(ModDatabase* db, const Op& op) const {
    const double s = static_cast<double>(op.id) * 10.0 + op.time * 0.5;
    switch (op.kind) {
      case Op::kInsert: {
        core::PositionAttribute attr;
        attr.start_time = op.time;
        attr.route = main_;
        attr.start_route_distance = s;
        attr.start_position = network_.route(main_).PointAt(s);
        attr.direction = core::TravelDirection::kForward;
        attr.speed = 0.75;
        return db->Insert(op.id, "obj-" + std::to_string(op.id), attr);
      }
      case Op::kUpdate: {
        core::PositionUpdate update;
        update.object = op.id;
        update.time = op.time;
        update.route = main_;
        update.route_distance = s;
        update.position = network_.route(main_).PointAt(s);
        update.direction = core::TravelDirection::kForward;
        update.speed = 1.0;
        return db->ApplyUpdate(update);
      }
      case Op::kErase:
        return db->Erase(op.id);
      case Op::kCheckpoint:
        return util::Status::Internal("checkpoint is not a db op");
    }
    return util::Status::Internal("unreachable");
  }

  /// Applies the whole script to a durable store in `dir`. Returns the
  /// signature after each successful mutation: `signatures[k]` is the
  /// state once k records hit the WAL (signatures[0] = empty store).
  /// Sets `records_at_checkpoint_` to k at the mid-script checkpoint.
  std::vector<std::string> RunCleanDurable(const std::string& dir,
                                           const DurabilityOptions& options) {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, dir, options);
    EXPECT_TRUE(manager.ok()) << manager.status().message();
    std::vector<std::string> signatures;
    signatures.push_back(Signature(db));
    for (const Op& op : script_) {
      if (op.kind == Op::kCheckpoint) {
        records_at_checkpoint_ = signatures.size() - 1;
        EXPECT_TRUE((*manager)->Checkpoint().ok());
        continue;
      }
      EXPECT_TRUE(ApplyOp(&db, op).ok());
      signatures.push_back(Signature(db));
    }
    total_wal_bytes_ = 0;
    for (const WalSegmentInfo& seg : ListWalSegments(dir)) {
      total_wal_bytes_ += *util::FileSize(seg.path);
    }
    return signatures;
  }

  /// Index of `signature` in `signatures`, or npos.
  static std::size_t FindPrefix(const std::vector<std::string>& signatures,
                                const std::string& signature) {
    const auto it =
        std::find(signatures.begin(), signatures.end(), signature);
    return it == signatures.end()
               ? std::string::npos
               : static_cast<std::size_t>(it - signatures.begin());
  }

  DurabilityOptions TortureOptions() const {
    DurabilityOptions options;
    options.wal.segment_max_bytes = 256;  // force rotations mid-script
    return options;
  }

  geo::RouteNetwork network_;
  geo::RouteId main_ = geo::kInvalidRouteId;
  std::vector<Op> script_;
  std::size_t records_at_checkpoint_ = 0;
  std::uint64_t total_wal_bytes_ = 0;
  std::string root_;
};

TEST_F(CrashTortureTest, PowerLossAtEveryWalOffsetRecoversTheExactPrefix) {
  const DurabilityOptions options = TortureOptions();
  const std::vector<std::string> signatures =
      RunCleanDurable(root_ + "/clean", options);
  ASSERT_GT(total_wal_bytes_, 0u);
  ASSERT_GT(records_at_checkpoint_, 0u);

  std::vector<std::uint64_t> crash_offsets;
  for (std::uint64_t x = 0; x < total_wal_bytes_; x += 13) {
    crash_offsets.push_back(x);
  }
  crash_offsets.push_back(total_wal_bytes_ - 1);

  for (const std::uint64_t crash_at : crash_offsets) {
    SCOPED_TRACE("crash after " + std::to_string(crash_at) + " WAL bytes");
    const std::string dir = root_ + "/crash";
    fs::remove_all(dir);

    util::FaultPlan plan;
    plan.crash_after_bytes = crash_at;
    util::FaultInjector injector(plan);
    DurabilityOptions faulty = options;
    faulty.wal.file_factory = injector.factory();

    std::size_t applied = 0;
    bool checkpointed = false;
    {
      ModDatabase db(&network_);
      auto manager = DurabilityManager::Open(&db, dir, faulty);
      ASSERT_TRUE(manager.ok()) << manager.status().message();
      for (const Op& op : script_) {
        util::Status s = op.kind == Op::kCheckpoint ? (*manager)->Checkpoint()
                                                    : ApplyOp(&db, op);
        if (!s.ok()) {
          // The only legal failure is the injected power loss; the store
          // "dies" here, mid-script.
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

    auto recovered = Reopen(&network_, dir, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    // Exactly the applied prefix: aborted mutations and torn frames are
    // invisible, committed ones all survive.
    EXPECT_EQ(Signature(*recovered->database), signatures[applied]);
    if (checkpointed) {
      EXPECT_GE(applied, records_at_checkpoint_);
      EXPECT_GE(recovered->report().checkpoint_id, 2u);
    }
  }
}

TEST_F(CrashTortureTest, GroupCommitPowerLossStaysWithinTheSyncWindow) {
  // Group commit trades the per-append fsync for a bounded loss window: a
  // power cut between a batch append and its deferred fsync may lose the
  // unsynced tail, but never more than `sync_every_bytes` plus the frame
  // in flight, and never anything already fsynced. The injected crash
  // drops the unsynced tail of the live segment (`lose_unsynced_on_crash`
  // models the page cache dying with the machine).
  const std::uint64_t kWindow = 128;
  DurabilityOptions options = TortureOptions();
  options.wal.sync_every_bytes = kWindow;

  // Clean reference run, tracking the cumulative WAL byte position after
  // every applied record. The position accumulates across the checkpoint's
  // epoch switch, matching the injector's cumulative offsets (each fresh
  // epoch gets a new writer whose own byte count restarts at zero).
  std::vector<std::string> signatures;
  std::vector<std::uint64_t> cum;
  {
    ModDatabase db(&network_);
    auto manager = DurabilityManager::Open(&db, root_ + "/clean", options);
    ASSERT_TRUE(manager.ok()) << manager.status().message();
    std::uint64_t epoch_base = 0;
    signatures.push_back(Signature(db));
    cum.push_back(0);
    for (const Op& op : script_) {
      if (op.kind == Op::kCheckpoint) {
        records_at_checkpoint_ = signatures.size() - 1;
        epoch_base += (*manager)->wal()->bytes();
        ASSERT_TRUE((*manager)->Checkpoint().ok());
        continue;
      }
      ASSERT_TRUE(ApplyOp(&db, op).ok());
      signatures.push_back(Signature(db));
      cum.push_back(epoch_base + (*manager)->wal()->bytes());
    }
  }
  const std::uint64_t total = cum.back();
  ASSERT_GT(total, 0u);
  std::uint64_t max_frame = 0;
  for (std::size_t k = 1; k < cum.size(); ++k) {
    max_frame = std::max(max_frame, cum[k] - cum[k - 1]);
  }

  std::size_t lossy_recoveries = 0;
  for (std::uint64_t crash_at = 0; crash_at < total; ++crash_at) {
    SCOPED_TRACE("crash after " + std::to_string(crash_at) + " WAL bytes");
    const std::string dir = root_ + "/crash";
    fs::remove_all(dir);

    util::FaultPlan plan;
    plan.crash_after_bytes = crash_at;
    plan.lose_unsynced_on_crash = true;
    util::FaultInjector injector(plan);
    DurabilityOptions faulty = options;
    faulty.wal.file_factory = injector.factory();

    std::size_t applied = 0;
    bool checkpointed = false;
    {
      ModDatabase db(&network_);
      auto manager = DurabilityManager::Open(&db, dir, faulty);
      ASSERT_TRUE(manager.ok()) << manager.status().message();
      for (const Op& op : script_) {
        util::Status s = op.kind == Op::kCheckpoint ? (*manager)->Checkpoint()
                                                    : ApplyOp(&db, op);
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

    auto recovered = Reopen(&network_, dir, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    const std::size_t prefix =
        FindPrefix(signatures, Signature(*recovered->database));
    ASSERT_NE(prefix, std::string::npos)
        << "recovered state is not a prefix of the applied stream";
    // Never newer than what was applied; never older than the sync window.
    // Everything fsynced before the crash survives, and at the crash at
    // most one full batch window plus the frame in flight was unsynced.
    EXPECT_LE(prefix, applied);
    EXPECT_GE(cum[prefix] + kWindow + max_frame,
              std::min(crash_at, cum[applied]));
    // A durable checkpoint is a floor regardless of the sync window.
    if (checkpointed) {
      EXPECT_GE(prefix, records_at_checkpoint_);
    }
    if (prefix < applied) ++lossy_recoveries;
  }
  // The sweep must actually hit the lossy region between an append and its
  // deferred fsync, otherwise the window bound above is vacuous.
  EXPECT_GT(lossy_recoveries, 0u);
}

TEST_F(CrashTortureTest, BitRotAtEveryWalByteRecoversAConsistentPrefix) {
  const DurabilityOptions options = TortureOptions();
  const std::string master = root_ + "/master";
  const std::vector<std::string> signatures =
      RunCleanDurable(master, options);
  const std::size_t full = signatures.size() - 1;

  // Epochs still on disk after the mid-script checkpoint: the checkpoint
  // epoch boundary tells which records a corrupt segment can cost.
  for (const WalSegmentInfo& seg : ListWalSegments(master)) {
    const auto size = util::FileSize(seg.path);
    ASSERT_TRUE(size.ok());
    for (std::uint64_t offset = 0; offset < *size; offset += 29) {
      SCOPED_TRACE(seg.path + " flip at " + std::to_string(offset));
      const std::string dir = root_ + "/rot";
      fs::remove_all(dir);
      fs::copy(master, dir, fs::copy_options::recursive);

      const std::string victim =
          (fs::path(dir) / fs::path(seg.path).filename()).string();
      ASSERT_TRUE(util::FlipFileByte(victim, offset).ok());

      auto recovered = Reopen(&network_, dir, options);
      ASSERT_TRUE(recovered.ok()) << recovered.status().message();
      const std::size_t prefix =
          FindPrefix(signatures, Signature(*recovered->database));
      ASSERT_NE(prefix, std::string::npos)
          << "recovered state is not a prefix of the applied stream";
      // Rot in a pre-checkpoint epoch is shadowed by the newer checkpoint;
      // rot after it can cost at most the post-checkpoint suffix.
      if (seg.epoch == 1) {
        EXPECT_EQ(prefix, full);
      } else {
        EXPECT_GE(prefix, records_at_checkpoint_);
      }
    }
  }
}

TEST_F(CrashTortureTest, TruncatedWalTailRecoversAConsistentPrefix) {
  const DurabilityOptions options = TortureOptions();
  const std::string master = root_ + "/master";
  const std::vector<std::string> signatures =
      RunCleanDurable(master, options);

  // Shorten the newest segment of the newest epoch to every length.
  std::vector<WalSegmentInfo> segments = ListWalSegments(master);
  ASSERT_FALSE(segments.empty());
  const WalSegmentInfo last = segments.back();
  const auto size = util::FileSize(last.path);
  ASSERT_TRUE(size.ok());

  for (std::uint64_t keep = 0; keep <= *size; keep += 7) {
    SCOPED_TRACE("tail truncated to " + std::to_string(keep) + " bytes");
    const std::string dir = root_ + "/trunc";
    fs::remove_all(dir);
    fs::copy(master, dir, fs::copy_options::recursive);
    ASSERT_TRUE(
        util::TruncateFile(
            (fs::path(dir) / fs::path(last.path).filename()).string(), keep)
            .ok());

    auto recovered = Reopen(&network_, dir, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    const std::size_t prefix =
        FindPrefix(signatures, Signature(*recovered->database));
    ASSERT_NE(prefix, std::string::npos);
    EXPECT_GE(prefix, records_at_checkpoint_);
  }
}

TEST_F(CrashTortureTest, RepeatedCrashRecoverCyclesConverge) {
  // Crash, recover, keep going, crash again — state never regresses.
  const DurabilityOptions options = TortureOptions();
  const std::string dir = root_ + "/cycles";
  const std::vector<std::string> signatures =
      RunCleanDurable(root_ + "/reference", options);

  std::size_t applied = 0;
  std::size_t script_pos = 0;
  int crashes = 0;
  // First life bootstraps; later lives recover and continue the script.
  while (script_pos < script_.size()) {
    util::FaultPlan plan;
    plan.crash_after_bytes = 120 + 160 * crashes;
    util::FaultInjector injector(plan);
    DurabilityOptions faulty = options;
    faulty.wal.file_factory = injector.factory();

    auto recovered = Reopen(&network_, dir, faulty);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    ASSERT_EQ(Signature(*recovered->database), signatures[applied]);
    ModDatabase* db = recovered->database.get();

    while (script_pos < script_.size()) {
      const Op& op = script_[script_pos];
      util::Status s;
      if (op.kind == Op::kCheckpoint) {
        s = recovered->durability->Checkpoint();
      } else {
        s = ApplyOp(db, op);
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
  auto final_state = Reopen(&network_, dir, options);
  ASSERT_TRUE(final_state.ok());
  EXPECT_EQ(Signature(*final_state->database), signatures.back());
}

}  // namespace
}  // namespace modb::db
