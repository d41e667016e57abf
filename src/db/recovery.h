#ifndef MODB_DB_RECOVERY_H_
#define MODB_DB_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "db/mod_database.h"
#include "db/snapshot.h"
#include "db/wal.h"
#include "util/metrics.h"
#include "util/status.h"

namespace modb::db {

/// Checkpoint + WAL knobs of a durable MOD store directory.
struct DurabilityOptions {
  WalWriterOptions wal;
  /// Checkpoints retained after a successful new checkpoint (>= 1). Keeping
  /// more than one lets recovery fall back when the newest checkpoint file
  /// itself is corrupt.
  std::size_t checkpoints_to_keep = 2;
};

/// What recovery found and did. Returned instead of failing: corruption
/// degrades gracefully to the last consistent prefix of the log.
struct RecoveryReport {
  /// True when state was restored from disk (false = fresh bootstrap).
  bool recovered = false;
  /// Id of the checkpoint loaded (0 when bootstrapping a fresh directory).
  std::uint64_t checkpoint_id = 0;
  /// Newer checkpoints skipped because they were unreadable/corrupt.
  std::size_t checkpoints_skipped = 0;
  /// Objects restored from the checkpoint.
  std::uint64_t objects_restored = 0;
  /// WAL records replayed on top of the checkpoint.
  std::uint64_t wal_records_replayed = 0;
  /// WAL records whose replay was rejected by the database (counted and
  /// skipped; a symptom of a log/checkpoint mismatch).
  std::uint64_t wal_records_skipped = 0;
  /// Bytes dropped at and after the first torn/corrupt WAL frame.
  std::uint64_t wal_bytes_truncated = 0;
  std::size_t wal_corrupt_segments = 0;
  /// Wall-clock time of the whole recovery (checkpoint load + replay +
  /// fresh-epoch checkpoint). For the sharded store this is the elapsed
  /// time of the parallel fan-out, not the per-shard sum.
  double duration_ms = 0.0;
  /// False when anything was skipped or truncated; `detail` says what.
  bool clean = true;
  std::string detail;
};

/// Owns the durable home of one `ModDatabase`: the directory layout
/// (`checkpoint-<id>.snap` + `wal-<epoch>-<seq>.log`), the live WAL writer
/// (attached to the database for write-ahead logging), and the checkpoint
/// protocol. The manager must outlive no database it is attached to — it
/// detaches on destruction.
///
/// Invariant: checkpoint id N covers every mutation up to the moment it was
/// written; WAL epoch N holds exactly the mutations after checkpoint N (so
/// checkpoint N+1 ≡ checkpoint N + epoch N). A new checkpoint starts a new
/// epoch and truncates the log: segments of epochs older than the oldest
/// *retained* checkpoint are deleted. Recovery exploits the equivalence —
/// if the newest checkpoint is corrupt it falls back to an older one and
/// chains the surviving epochs forward, losing nothing.
class DurabilityManager {
 public:
  /// Opens `dir` as the durable home of `*db`:
  ///  - missing/empty dir: bootstrap — checkpoints the database's current
  ///    state and starts a fresh WAL epoch;
  ///  - existing durable dir: requires `*db` empty; restores the newest
  ///    readable checkpoint into it (objects must resolve against the
  ///    database's own route network), replays the matching WAL epoch up to
  ///    the first torn/corrupt record, then checkpoints the recovered state
  ///    and starts a fresh epoch (recovery never appends to old segments).
  ///    Corruption never fails recovery — it bounds it, and
  ///    `recovery_report()` says exactly what was lost; only a directory
  ///    whose every checkpoint is unreadable fails.
  /// This is the one recovery entry point: the caller builds `*db` on its
  /// own network with the options it wrote with. On success the WAL is
  /// attached to `*db`. `*db` must outlive the manager.
  static util::Result<std::unique_ptr<DurabilityManager>> Open(
      ModDatabase* db, const std::string& dir,
      const DurabilityOptions& options = {});

  ~DurabilityManager();
  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Checkpoint protocol: write `checkpoint-<epoch+1>.snap` (tmp file +
  /// fsync + atomic rename), switch the database to a fresh WAL epoch, then
  /// delete the superseded segments and stale checkpoints. On failure the
  /// old WAL stays attached and the store keeps running.
  util::Status Checkpoint();

  /// Remediation for a poisoned WAL writer whose in-memory store is intact
  /// (the poison aborted its mutation before the memory commit, so memory
  /// is the source of truth): rotates the writer to a fresh segment via
  /// `WalWriter::TryReopen`, then checkpoints — the fresh epoch covers the
  /// whole in-memory state, restoring the full durability guarantee that
  /// the abandoned segment's unsynced tail weakened. No-op (just the
  /// checkpoint) on a healthy writer.
  util::Status TryReopenWal();

  const RecoveryReport& recovery_report() const { return report_; }
  const WalWriter* wal() const { return wal_.get(); }
  const std::string& dir() const { return dir_; }

  /// Adds this manager's recovery outcome to `<prefix>records_replayed`,
  /// `<prefix>records_skipped`, `<prefix>bytes_truncated`,
  /// `<prefix>corrupt_segments`, `<prefix>checkpoints_skipped` and
  /// `<prefix>duration_ms` (rounded to whole ms) counters,
  /// and wires the live WAL's counters into the same registry. The wiring
  /// survives `Checkpoint()` (each fresh-epoch writer is re-attached).
  void ExportMetrics(util::MetricsRegistry* registry,
                     const std::string& recovery_prefix = "recovery.",
                     const std::string& wal_prefix = "wal.");

 private:
  DurabilityManager(ModDatabase* db, std::string dir,
                    DurabilityOptions options)
      : db_(db), dir_(std::move(dir)), options_(std::move(options)) {}

  /// Shared tail of bootstrap/recovery: checkpoint the current state at
  /// `new_epoch`, open + attach the fresh WAL, prune stale files.
  util::Status StartFreshEpoch(std::uint64_t new_epoch);
  util::Status Prune();

  ModDatabase* db_;
  std::string dir_;
  DurabilityOptions options_;
  std::unique_ptr<WalWriter> wal_;
  RecoveryReport report_;
  util::MetricsRegistry* metrics_ = nullptr;  // see ExportMetrics
  std::string wal_metrics_prefix_;
};

/// File name of checkpoint `id` ("checkpoint-<id>.snap", zero-padded).
std::string CheckpointFileName(std::uint64_t id);

}  // namespace modb::db

#endif  // MODB_DB_RECOVERY_H_
