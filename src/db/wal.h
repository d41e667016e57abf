#ifndef MODB_DB_WAL_H_
#define MODB_DB_WAL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/position_attribute.h"
#include "core/types.h"
#include "core/update_policy.h"
#include "geo/route_network.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/status.h"

namespace modb::db {

/// One logical mutation of the MOD store, as logged and replayed.
enum class WalRecordType : std::uint8_t {
  kInsert = 1,       // object registration (id, label, full position attribute)
  kUpdate = 2,       // position update message (paper §3.1)
  kErase = 3,        // end of trip
  kUpdateBatch = 4,  // batched mutations: one frame, N nested sub-records
  kGroupBatch = 5,   // compact update rows + convoy transitions (legacy)
};

// The `kGroupBatch` framing was written by the retired convoy tracker. Its
// records are still decoded and replayed: the update rows apply like a
// `kUpdateBatch`, and the transitions are decoded (so a malformed one
// still rejects the frame) and then dropped. The structs below describe
// the transition payload on disk; nothing else reads them.

/// Convoy identifier in a `kGroupBatch` transition.
using GroupId = std::uint64_t;

/// Shared motion model carried by the kForm and kRefresh transitions: a
/// line in (time, route-distance) space plus the cohesion tube around it.
struct GroupModel {
  geo::RouteId route = geo::kInvalidRouteId;
  core::TravelDirection direction = core::TravelDirection::kForward;
  double speed = 0.0;
  core::Time anchor_time = 0.0;
  double anchor_distance = 0.0;
  core::Time window_lo = 0.0;
  core::Time window_hi = 0.0;
  double vmax = 0.0;
  double width = 0.0;
};

/// Kind of a logged convoy-membership transition (byte values on disk).
enum class GroupTransitionKind : std::uint8_t {
  kForm = 1,
  kJoin = 2,
  kLeave = 3,
  kDissolve = 4,
  kLeaderChange = 5,
  kRefresh = 6,
};

/// One logged convoy-membership transition. `model` is encoded for kForm
/// and kRefresh only.
struct GroupTransition {
  GroupTransitionKind kind = GroupTransitionKind::kForm;
  GroupId group = 0;
  core::ObjectId leader = core::kInvalidObjectId;
  GroupModel model;
  std::vector<core::ObjectId> members;
};

/// One update row of a `kGroupBatch` record: a position update whose
/// redundant fields were elided at encode time. A `time_elided` row shares
/// the chunk's base time (the decoder rehydrates `update.time` itself); a
/// `position_elided` row carries no (x, y) — the position is bit-identical
/// to the route geometry at `route_distance`, so the replayer rehydrates
/// it against the route network.
struct GroupWalRow {
  core::PositionUpdate update;
  bool time_elided = false;
  bool position_elided = false;
};

/// Decoded WAL record. Only the fields of the active `type` are meaningful:
/// kInsert uses id/label/attr, kUpdate uses update, kErase uses id,
/// kUpdateBatch uses batch (nesting depth is exactly one: a sub-record is
/// never itself a batch — the decoder rejects deeper nesting), kGroupBatch
/// uses group_base_time/group_rows/group_transitions.
struct WalRecord {
  WalRecordType type = WalRecordType::kUpdate;
  core::ObjectId id = core::kInvalidObjectId;
  std::string label;
  core::PositionAttribute attr;
  core::PositionUpdate update;
  std::vector<WalRecord> batch;
  core::Time group_base_time = 0.0;
  std::vector<GroupWalRow> group_rows;
  std::vector<GroupTransition> group_transitions;
};

/// Encodes a record payload (type byte + little-endian fields; no frame).
std::string EncodeWalRecord(const WalRecord& record);

/// Decodes a payload produced by `EncodeWalRecord`. False on any size or
/// type mismatch (never reads out of bounds).
bool DecodeWalRecord(std::string_view payload, WalRecord* record);

/// File name of WAL segment `seq` of checkpoint epoch `epoch`
/// ("wal-<epoch>-<seq>.log"; both zero-padded so lexicographic = numeric).
std::string WalSegmentFileName(std::uint64_t epoch, std::uint64_t seq);

/// A WAL segment found on disk.
struct WalSegmentInfo {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::string path;
};

/// All WAL segments in `dir`, sorted by (epoch, seq).
std::vector<WalSegmentInfo> ListWalSegments(const std::string& dir);

/// Durability knobs of the write-ahead log.
///
/// Sync policy (group commit): `sync_every_append` is the group of 1
/// (worst case, measured by E14); `sync_every_bytes` / `sync_interval_ms`
/// batch many appends per fsync, bounding loss after a power cut to the
/// configured window; with all three off, syncing is explicit — the caller
/// decides when `Sync()` runs (the OS page cache still bounds loss to the
/// machine-crash window). The triggers compose: an append syncs as soon as
/// any enabled trigger is due.
struct WalWriterOptions {
  /// Rotate to a new segment once the current one reaches this size.
  /// Records never span segments.
  std::uint64_t segment_max_bytes = 4ull << 20;
  /// fsync after every append (group commit of 1).
  bool sync_every_append = false;
  /// Group commit: fsync once this many framed bytes have accumulated
  /// since the last sync (0 disables the byte trigger).
  std::uint64_t sync_every_bytes = 0;
  /// Group commit: an append fsyncs when this much wall time has passed
  /// since the last sync (0 disables). Checked at append time, so an idle
  /// log stays unsynced until the next append or an explicit `Sync()`.
  double sync_interval_ms = 0.0;
  /// File backend; null uses real files. Tests inject faults here.
  util::WritableFileFactory file_factory;
};

/// Append-only, CRC32C-checksummed, segment-rotated binary log of store
/// mutations. Each frame is `[u32 payload_len][u32 masked crc][payload]`,
/// little-endian; a torn tail or flipped bit is detected by the reader and
/// the log is logically truncated at the first bad frame.
///
/// Failure discipline: the first failed append, sync, or rotation
/// *poisons* the writer — every later `Append*`/`Sync` returns the same
/// sticky error. Allowing appends to continue past a failure would put
/// records after a hole in the log; recovery replays a prefix, so those
/// records would silently vanish while the in-memory store kept them.
///
/// Thread-compatibility matches `ModDatabase`: callers serialise access
/// (each shard owns its own writer).
class WalWriter {
 public:
  /// Opens a fresh WAL at epoch `epoch` inside `dir` (created if missing).
  /// Always starts at segment 1 — recovery never appends to old segments;
  /// it starts a new epoch instead.
  static util::Result<std::unique_ptr<WalWriter>> Open(
      const std::string& dir, std::uint64_t epoch, WalWriterOptions options);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  util::Status AppendInsert(core::ObjectId id, std::string_view label,
                            const core::PositionAttribute& attr);
  util::Status AppendUpdate(const core::PositionUpdate& update);
  util::Status AppendErase(core::ObjectId id);

  /// Appends a batch of sub-records as a single framed `kUpdateBatch`
  /// record: one CRC frame, one append, one group-commit trigger check —
  /// the log stage of the batched write path. A batch of one is logged as
  /// its plain record (byte-identical with the historical per-call
  /// framing); an empty batch is a no-op. Batches whose encoding would
  /// approach the reader's payload sanity bound are split transparently
  /// into several chunk records. Failure semantics follow the poison
  /// discipline: a failed chunk append fails the call and poisons the
  /// writer, but chunks already appended stay in the log — recovery
  /// replays that *prefix* of the batch (batch atomicity is an in-memory
  /// property; durability is per logged record). Sub-records must not be
  /// batches themselves (nesting depth is one).
  util::Status AppendBatch(const std::vector<WalRecord>& records);

  /// Convenience for the common batch: wraps each update in a kUpdate
  /// sub-record and calls `AppendBatch`.
  util::Status AppendUpdateBatch(
      const std::vector<core::PositionUpdate>& updates);

  /// Appends one update batch in the legacy compact framing
  /// (`kGroupBatch`): rows elide the update time when it bit-equals the
  /// chunk's base time and the (x, y) position when it bit-equals the route
  /// geometry at the row's route distance, and `transitions` ride in the
  /// same frame. No store logs this framing; it stays because the
  /// benchmark's WAL replay still times it. Oversized batches split into
  /// chunks like `AppendBatch` (each chunk carries its own base time; the
  /// transitions ride the last chunk only) with the same prefix-replay
  /// failure semantics.
  util::Status AppendGroupBatch(
      const std::vector<core::PositionUpdate>& updates,
      const std::vector<GroupTransition>& transitions,
      const geo::RouteNetwork& network);

  /// Forces buffered frames to durable storage (ends the current group-
  /// commit batch). A no-op when nothing was appended since the last sync.
  util::Status Sync();

  /// Remediation path for a poisoned writer: closes the suspect segment,
  /// truncates it back to its last whole-frame boundary (a failed append
  /// can leave a torn frame on disk, and replay stops at the first bad
  /// frame — every later segment would silently vanish), opens a fresh
  /// segment, and clears the poison only once all of that succeeded. When
  /// the poisoned rotation never created its segment file, the same
  /// sequence number is reused so the on-disk sequence stays contiguous
  /// (replay treats a gap as corruption). On failure the writer stays
  /// poisoned and the call is safe to retry. Durability caveat: frames of
  /// the abandoned segment that were never fsynced are flushed on close
  /// but not synced — callers wanting the full guarantee back should
  /// checkpoint (fresh epoch) after a successful reopen, which is what the
  /// shard supervisor does.
  util::Status TryReopen();

  /// Flushes and closes the current segment; later appends fail.
  util::Status Close();

  std::uint64_t epoch() const { return epoch_; }
  /// Records appended (this writer, all segments).
  std::uint64_t appends() const { return appends_; }
  /// Framed bytes appended (this writer, all segments).
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t segments_opened() const { return seq_; }
  /// Records / framed bytes appended since the last successful sync — the
  /// open group-commit batch, i.e. what a power cut right now could lose.
  std::uint64_t unsynced_appends() const { return unsynced_appends_; }
  std::uint64_t unsynced_bytes() const { return unsynced_bytes_; }
  /// The sticky failure (OK while healthy); see the class comment.
  const util::Status& poison() const { return poison_; }

  /// Registers `<prefix>appends`, `<prefix>bytes`, `<prefix>syncs` and
  /// `<prefix>rotations` counters plus the `<prefix>group_commit_batch`
  /// distribution in `registry` (nullptr detaches). The batch instrument
  /// reuses the latency-histogram machinery with *records per sync* as the
  /// recorded value (its "µs" unit reads as a record count). Several
  /// writers given the same registry share the instruments, which is how
  /// the sharded layer aggregates per-shard WALs.
  void SetMetrics(util::MetricsRegistry* registry,
                  const std::string& prefix = "wal.");

 private:
  WalWriter(std::string dir, std::uint64_t epoch, WalWriterOptions options)
      : dir_(std::move(dir)), epoch_(epoch), options_(std::move(options)) {}

  util::Status AppendRecord(const WalRecord& record);
  /// Frames and appends an already-encoded payload (the shared tail of
  /// `AppendRecord` and the chunked batch path).
  util::Status AppendEncoded(const std::string& payload);
  util::Status OpenNextSegment();
  /// Syncs if any group-commit trigger is due; OK when none is.
  util::Status MaybeSync();
  /// Records the sticky error and returns it.
  util::Status Poison(util::Status status);
  /// Prefixes `status` with the failing epoch + segment path, so a
  /// quarantine reason names the exact file (already-contextual statuses
  /// pass through unchanged).
  util::Status WithSegmentContext(util::Status status,
                                  const std::string& path) const;
  /// Path of segment `seq` of this writer's epoch inside `dir_`.
  std::string SegmentPath(std::uint64_t seq) const;
  bool BoundedSyncWindow() const {
    return options_.sync_every_append || options_.sync_every_bytes > 0 ||
           options_.sync_interval_ms > 0.0;
  }

  std::string dir_;
  std::uint64_t epoch_;
  WalWriterOptions options_;
  std::unique_ptr<util::WritableFile> segment_;
  std::string segment_path_;  // of the open segment (empty before the first)
  std::uint64_t segment_bytes_ = 0;
  std::uint64_t seq_ = 0;  // segments opened so far; current = seq_
  std::uint64_t appends_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t unsynced_appends_ = 0;
  std::uint64_t unsynced_bytes_ = 0;
  std::chrono::steady_clock::time_point last_sync_ =
      std::chrono::steady_clock::now();
  util::Status poison_;  // non-OK once the log may have a hole
  bool closed_ = false;
  util::Counter* appends_counter_ = nullptr;
  util::Counter* bytes_counter_ = nullptr;
  util::Counter* syncs_counter_ = nullptr;
  util::Counter* rotations_counter_ = nullptr;
  util::LatencyHistogram* batch_hist_ = nullptr;  // records per sync
};

/// Outcome of replaying one epoch's WAL suffix.
struct WalReplayStats {
  /// Records decoded and handed to `apply`.
  std::uint64_t records = 0;
  /// Framed bytes consumed by those records.
  std::uint64_t bytes_replayed = 0;
  /// Bytes dropped at and after the first torn/corrupt frame (including
  /// every byte of later segments — the log is a prefix or nothing).
  std::uint64_t bytes_truncated = 0;
  /// Records whose `apply` returned an error (counted, replay continues).
  std::uint64_t records_skipped = 0;
  std::size_t segments = 0;
  std::size_t corrupt_segments = 0;
  /// False when any truncation happened; `detail` says where.
  bool clean = true;
  std::string detail;
};

/// Replays every record of epoch `epoch` in `dir`, in order, through
/// `apply`. Corruption is graceful degradation, not failure: the replay
/// stops at the first bad frame and reports what was dropped. Only I/O
/// setup problems (unreadable directory, a failing read) return a non-OK
/// status — those name the epoch and the segment path. `reader` lets
/// chaos schedules inject read failures; null uses real reads.
util::Result<WalReplayStats> ReplayWal(
    const std::string& dir, std::uint64_t epoch,
    const std::function<util::Status(const WalRecord&)>& apply,
    util::FileReader reader = nullptr);

}  // namespace modb::db

#endif  // MODB_DB_WAL_H_
