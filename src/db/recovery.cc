#include "db/recovery.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

namespace modb::db {

namespace {

namespace fs = std::filesystem;

struct CheckpointInfo {
  std::uint64_t id = 0;
  std::string path;
};

/// All checkpoints in `dir`, sorted ascending by id.
std::vector<CheckpointInfo> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointInfo> checkpoints;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    CheckpointInfo info;
    char trailer = 0;
    if (std::sscanf(name.c_str(), "checkpoint-%" SCNu64 ".sna%c", &info.id,
                    &trailer) == 2 &&
        trailer == 'p') {
      info.path = entry.path().string();
      checkpoints.push_back(std::move(info));
    }
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.id < b.id;
            });
  return checkpoints;
}

/// fsync a file (or directory) by path; best effort on platforms where
/// directories cannot be opened.
void SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

/// Largest epoch mentioned by any file in `dir` (checkpoint ids and WAL
/// epochs live in one sequence).
std::uint64_t MaxEpochOnDisk(const std::string& dir) {
  std::uint64_t max_epoch = 0;
  for (const CheckpointInfo& cp : ListCheckpoints(dir)) {
    max_epoch = std::max(max_epoch, cp.id);
  }
  for (const WalSegmentInfo& seg : ListWalSegments(dir)) {
    max_epoch = std::max(max_epoch, seg.epoch);
  }
  return max_epoch;
}

/// Applies one replayed WAL record to `db`.
util::Status ApplyWalRecord(ModDatabase* db, const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kInsert:
      return db->Insert(record.id, record.label, record.attr);
    case WalRecordType::kUpdate:
      return db->ApplyUpdate(record.update);
    case WalRecordType::kErase:
      return db->Erase(record.id);
    case WalRecordType::kUpdateBatch: {
      // An all-update batch replays through the same staged batch path the
      // live write took, so a recovered store rebuilds its index with the
      // identical grouped deltas. Mixed batches (BulkInsert logs nested
      // kInsert records) fall back to per-record dispatch; either way the
      // whole frame applies or replay reports the first failure.
      bool updates_only = true;
      for (const WalRecord& sub : record.batch) {
        if (sub.type != WalRecordType::kUpdate) {
          updates_only = false;
          break;
        }
      }
      if (updates_only) {
        std::vector<core::PositionUpdate> updates;
        updates.reserve(record.batch.size());
        for (const WalRecord& sub : record.batch) {
          updates.push_back(sub.update);
        }
        return db->ApplyUpdateBatch(updates).first_error();
      }
      util::Status first;
      for (const WalRecord& sub : record.batch) {
        if (util::Status s = ApplyWalRecord(db, sub); !s.ok() && first.ok()) {
          first = std::move(s);
        }
      }
      return first;
    }
    case WalRecordType::kGroupBatch: {
      // Legacy convoy framing: rehydrate elided positions against the route
      // geometry (they were elided precisely because they bit-equalled it)
      // and replay the rows through the staged batch path. The record's
      // convoy transitions have no effect on a store without groups.
      std::vector<core::PositionUpdate> updates;
      updates.reserve(record.group_rows.size());
      for (const GroupWalRow& row : record.group_rows) {
        core::PositionUpdate update = row.update;
        if (row.position_elided) {
          // An invalid route is left for ApplyUpdateBatch to reject.
          const auto route = db->network().FindRoute(update.route);
          if (route.ok() && (*route)->Valid()) {
            update.position = (*route)->PointAt(update.route_distance);
          }
        }
        updates.push_back(update);
      }
      return db->ApplyUpdateBatch(updates).first_error();
    }
  }
  return util::Status::Internal("unknown WAL record type");
}

void MergeReplayStats(const WalReplayStats& stats, RecoveryReport* report) {
  report->wal_records_replayed += stats.records;
  report->wal_records_skipped += stats.records_skipped;
  report->wal_bytes_truncated += stats.bytes_truncated;
  report->wal_corrupt_segments += stats.corrupt_segments;
  if (!stats.clean || stats.records_skipped > 0) {
    report->clean = false;
    if (report->detail.empty()) report->detail = stats.detail;
  }
}

/// Replays WAL epochs `first_epoch`, `first_epoch + 1`, … in order into
/// `db`. Checkpoint N+1 is by construction checkpoint N plus every record
/// of epoch N, so chaining epochs forward from an older checkpoint recovers
/// everything the newer (corrupt, skipped) checkpoints covered. The chain
/// stops at the first truncation — records beyond a hole cannot be trusted
/// to apply to a consistent base.
///
/// Invariant (enforced, not just documented): `db` must have no WAL
/// attached. Replaying into a logging database would append every replayed
/// record right back into the epoch being read — doubling the log on every
/// restart and, worse, interleaving re-logged records with live ones.
util::Status ReplayEpochChain(const std::string& dir,
                              std::uint64_t first_epoch, ModDatabase* db,
                              RecoveryReport* report) {
  if (db->wal() != nullptr) {
    return util::Status::FailedPrecondition(
        "WAL replay into a database that is itself logging (epoch " +
        std::to_string(first_epoch) + " of " + dir +
        "): detach the WAL before replaying");
  }
  std::vector<std::uint64_t> epochs;
  for (const WalSegmentInfo& seg : ListWalSegments(dir)) {
    if (seg.epoch >= first_epoch &&
        (epochs.empty() || epochs.back() != seg.epoch)) {
      epochs.push_back(seg.epoch);
    }
  }
  const auto apply = [db](const WalRecord& record) {
    return ApplyWalRecord(db, record);
  };
  std::uint64_t expected = first_epoch;
  for (std::uint64_t epoch : epochs) {
    if (epoch != expected++) break;  // epoch gap: same rule as a torn frame
    auto stats = ReplayWal(dir, epoch, apply);
    if (!stats.ok()) {
      // A replay *setup* failure (unreadable segment) is not graceful
      // corruption: the epoch's records exist but could not be applied, so
      // recovery must fail — silently stopping here would present a
      // consistent-looking store missing a known-recoverable suffix. The
      // status already names the epoch + segment path (quarantine reason).
      report->clean = false;
      if (report->detail.empty()) report->detail = stats.status().message();
      return stats.status();
    }
    MergeReplayStats(*stats, report);
    if (!stats->clean) break;
  }
  return util::Status::Ok();
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Loads the newest checkpoint that parses, skipping corrupt ones, still
/// inside its bulk-ingest session (unindexed).
util::Result<LoadedSnapshot> LoadNewestCheckpoint(const std::string& dir,
                                                  RecoveryReport* report) {
  const std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir);
  if (checkpoints.empty()) {
    return util::Status::NotFound("no checkpoint in " + dir);
  }
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    auto loaded = LoadSnapshotInBulkIngest(it->path);
    if (loaded.ok()) {
      report->checkpoint_id = it->id;
      report->recovered = true;
      report->objects_restored = loaded->database->num_objects();
      return std::move(loaded).value();
    }
    ++report->checkpoints_skipped;
    report->clean = false;
    if (report->detail.empty()) {
      report->detail =
          "corrupt checkpoint " + it->path + ": " + loaded.status().message();
    }
  }
  return util::Status::InvalidArgument("every checkpoint in " + dir +
                                       " is corrupt");
}

}  // namespace

std::string CheckpointFileName(std::uint64_t id) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "checkpoint-%08" PRIu64 ".snap", id);
  return buf;
}

util::Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    ModDatabase* db, const std::string& dir,
    const DurabilityOptions& options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create " + dir + ": " +
                                  ec.message());
  }
  std::unique_ptr<DurabilityManager> manager(
      new DurabilityManager(db, dir, options));

  const auto started = std::chrono::steady_clock::now();
  const std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir);
  if (!checkpoints.empty()) {
    if (db->num_objects() != 0) {
      return util::Status::FailedPrecondition(
          "recovering " + dir + " requires an empty database");
    }
    auto loaded = LoadNewestCheckpoint(dir, &manager->report_);
    if (!loaded.ok()) return loaded.status();

    // Stage checkpoint restore + replay at record-map speed; the index is
    // built once at the end with the bulk path (~10× faster than indexed
    // replay on recovery-sized streams, E14); the checkpoint's own store,
    // copied from, is never indexed.
    if (util::Status s = db->BeginBulkIngest(); !s.ok()) return s;

    // Restore the checkpoint's objects into the caller's database; its
    // network must resolve every route the checkpoint references.
    util::Status restore_error;
    loaded->database->ForEachRecord([&](const MovingObjectRecord& record) {
      if (!restore_error.ok()) return;
      if (util::Status s = db->Insert(record.id, record.label, record.attr);
          !s.ok()) {
        restore_error = s;
        return;
      }
      if (!record.past.empty()) {
        if (util::Status s = db->RestoreTrajectory(record.id, record.past);
            !s.ok()) {
          restore_error = s;
        }
      }
    });
    if (restore_error.ok()) {
      restore_error =
          ReplayEpochChain(dir, manager->report_.checkpoint_id, db,
                           &manager->report_);
    }
    // Rebuild the index even on a failed restore: the caller gets back a
    // database whose index matches whatever records made it in.
    if (util::Status s = db->FinishBulkIngest();
        restore_error.ok() && !s.ok()) {
      restore_error = s;
    }
    if (!restore_error.ok()) return restore_error;
  }

  if (util::Status s = manager->StartFreshEpoch(MaxEpochOnDisk(dir) + 1);
      !s.ok()) {
    return s;
  }
  manager->report_.duration_ms = ElapsedMs(started);
  return manager;
}

DurabilityManager::~DurabilityManager() {
  if (db_ != nullptr) db_->AttachWal(nullptr);
  if (wal_ != nullptr) (void)wal_->Close();
}

util::Status DurabilityManager::StartFreshEpoch(std::uint64_t new_epoch) {
  // The index is not part of a checkpoint (recovery rebuilds it from the
  // records), so a disk-backed index writes no pages here.
  //
  // 1. Write the checkpoint to a tmp file and make its bytes durable — but
  // do not publish it yet.
  const fs::path final_path = fs::path(dir_) / CheckpointFileName(new_epoch);
  const fs::path tmp_path = final_path.string() + ".tmp";
  if (util::Status s = SaveSnapshot(*db_, tmp_path.string()); !s.ok()) {
    return util::Status(s.code(), "checkpoint epoch " +
                                      std::to_string(new_epoch) + " write " +
                                      tmp_path.string() + ": " + s.message());
  }
  SyncPath(tmp_path.string());

  // 2. Open WAL epoch N+1 while checkpoint N is still the newest visible
  // one. Failing here is harmless: the tmp file is invisible to recovery
  // and the previous WAL (if any) stays attached and intact. The reverse
  // order — publish first, open second — is a real durability bug: a
  // visible checkpoint N+1 with the store still logging into epoch N sends
  // recovery to (empty) epoch N+1 and silently drops every record written
  // after the checkpoint.
  auto wal = WalWriter::Open(dir_, new_epoch, options_.wal);
  if (!wal.ok()) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    return wal.status();
  }

  // 3. Atomically publish checkpoint N+1. From this instant recovery
  // prefers it and replays epoch N+1 — which exists and is empty.
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    (void)(*wal)->Close();
    std::error_code ignored;
    fs::remove(fs::path(dir_) / WalSegmentFileName(new_epoch, 1), ignored);
    fs::remove(tmp_path, ignored);
    return util::Status::Internal("checkpoint epoch " +
                                  std::to_string(new_epoch) + " rename to " +
                                  final_path.string() + ": " + ec.message());
  }
  SyncPath(dir_);

  // 4. Swap the live writer and prune superseded files.
  if (wal_ != nullptr) (void)wal_->Close();
  wal_ = std::move(*wal);
  if (metrics_ != nullptr) wal_->SetMetrics(metrics_, wal_metrics_prefix_);
  db_->AttachWal(wal_.get());
  return Prune();
}

util::Status DurabilityManager::Prune() {
  std::error_code ec;
  std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir_);
  const std::size_t keep = std::max<std::size_t>(options_.checkpoints_to_keep,
                                                 1);
  while (checkpoints.size() > keep) {
    fs::remove(checkpoints.front().path, ec);
    checkpoints.erase(checkpoints.begin());
  }
  // Log truncation: segments below the oldest *retained* checkpoint can
  // never be replayed again. Epochs from that checkpoint on are kept so
  // recovery can fall back across a corrupt newer checkpoint and chain the
  // epochs forward without losing a record.
  const std::uint64_t oldest_needed =
      checkpoints.empty() ? 0 : checkpoints.front().id;
  for (const WalSegmentInfo& seg : ListWalSegments(dir_)) {
    if (seg.epoch < oldest_needed) fs::remove(seg.path, ec);
  }
  return util::Status::Ok();
}

util::Status DurabilityManager::Checkpoint() {
  return StartFreshEpoch(wal_->epoch() + 1);
}

util::Status DurabilityManager::TryReopenWal() {
  if (wal_ == nullptr) {
    return util::Status::FailedPrecondition("no WAL attached to " + dir_);
  }
  if (!wal_->poison().ok()) {
    if (util::Status s = wal_->TryReopen(); !s.ok()) return s;
  }
  // The fresh epoch's checkpoint covers the whole in-memory state, so
  // nothing depends on the abandoned segment's unsynced tail anymore.
  return Checkpoint();
}

void DurabilityManager::ExportMetrics(util::MetricsRegistry* registry,
                                      const std::string& recovery_prefix,
                                      const std::string& wal_prefix) {
  metrics_ = registry;
  wal_metrics_prefix_ = wal_prefix;
  if (registry == nullptr) {
    if (wal_ != nullptr) wal_->SetMetrics(nullptr);
    return;
  }
  registry->GetCounter(recovery_prefix + "records_replayed")
      ->Increment(report_.wal_records_replayed);
  registry->GetCounter(recovery_prefix + "records_skipped")
      ->Increment(report_.wal_records_skipped);
  registry->GetCounter(recovery_prefix + "bytes_truncated")
      ->Increment(report_.wal_bytes_truncated);
  registry->GetCounter(recovery_prefix + "corrupt_segments")
      ->Increment(report_.wal_corrupt_segments);
  registry->GetCounter(recovery_prefix + "checkpoints_skipped")
      ->Increment(report_.checkpoints_skipped);
  registry->GetCounter(recovery_prefix + "duration_ms")
      ->Increment(static_cast<std::uint64_t>(
          std::llround(std::max(0.0, report_.duration_ms))));
  if (wal_ != nullptr) wal_->SetMetrics(registry, wal_prefix);
}

}  // namespace modb::db
