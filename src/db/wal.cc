#include "db/wal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "util/crc32c.h"

namespace modb::db {

namespace {

// Frame header: payload length + masked CRC32C of the payload.
constexpr std::size_t kFrameHeaderBytes = 8;
// Sanity bound: no legal record is near this (labels are the only variable
// part); a length beyond it is corruption, not a huge record.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;
// Batch records are split into chunks before their payload approaches
// `kMaxPayloadBytes`, so the reader's sanity bound never rejects a legal
// batch (a single update encodes to ~70 bytes; ~3700 fit per chunk).
constexpr std::size_t kBatchChunkPayloadBytes = 256u << 10;

void PutU32(std::string* out, std::uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(buf, 4);
}

void PutU64(std::string* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

void PutF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

/// Bounds-checked little-endian cursor over a payload.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool GetU8(std::uint8_t* v) {
    if (data_.size() < 1) return false;
    *v = static_cast<std::uint8_t>(data_[0]);
    data_.remove_prefix(1);
    return true;
  }

  bool GetU32(std::uint32_t* v) {
    if (data_.size() < 4) return false;
    *v = 0;
    for (int i = 3; i >= 0; --i) {
      *v = (*v << 8) | static_cast<std::uint8_t>(data_[i]);
    }
    data_.remove_prefix(4);
    return true;
  }

  bool GetU64(std::uint64_t* v) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = (static_cast<std::uint64_t>(hi) << 32) | lo;
    return true;
  }

  bool GetF64(double* v) {
    std::uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(bits));
    return true;
  }

  bool GetString(std::string* s) {
    std::uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (data_.size() < len) return false;
    s->assign(data_.substr(0, len));
    data_.remove_prefix(len);
    return true;
  }

  bool AtEnd() const { return data_.empty(); }

 private:
  std::string_view data_;
};

void PutDirection(std::string* out, core::TravelDirection d) {
  PutU8(out, d == core::TravelDirection::kForward ? 1 : 0);
}

bool GetDirection(Cursor* cursor, core::TravelDirection* d) {
  std::uint8_t raw = 0;
  if (!cursor->GetU8(&raw)) return false;
  if (raw > 1) return false;
  *d = raw == 1 ? core::TravelDirection::kForward
                : core::TravelDirection::kBackward;
  return true;
}

void PutAttribute(std::string* out, const core::PositionAttribute& a) {
  PutF64(out, a.start_time);
  PutU32(out, a.route);
  PutF64(out, a.start_route_distance);
  PutF64(out, a.start_position.x);
  PutF64(out, a.start_position.y);
  PutDirection(out, a.direction);
  PutF64(out, a.speed);
  PutU8(out, static_cast<std::uint8_t>(a.policy));
  PutF64(out, a.update_cost);
  PutF64(out, a.max_speed);
  PutF64(out, a.fixed_threshold);
  PutF64(out, a.period);
  PutF64(out, a.step_threshold);
}

bool GetAttribute(Cursor* cursor, core::PositionAttribute* a) {
  std::uint32_t route = 0;
  std::uint8_t policy = 0;
  if (!cursor->GetF64(&a->start_time) || !cursor->GetU32(&route) ||
      !cursor->GetF64(&a->start_route_distance) ||
      !cursor->GetF64(&a->start_position.x) ||
      !cursor->GetF64(&a->start_position.y) ||
      !GetDirection(cursor, &a->direction) || !cursor->GetF64(&a->speed) ||
      !cursor->GetU8(&policy) || !cursor->GetF64(&a->update_cost) ||
      !cursor->GetF64(&a->max_speed) || !cursor->GetF64(&a->fixed_threshold) ||
      !cursor->GetF64(&a->period) || !cursor->GetF64(&a->step_threshold)) {
    return false;
  }
  if (policy > static_cast<std::uint8_t>(core::PolicyKind::kStepThreshold)) {
    return false;
  }
  a->route = route;
  a->policy = static_cast<core::PolicyKind>(policy);
  return true;
}

// kGroupBatch row flags.
constexpr std::uint8_t kRowTimeElided = 1u << 0;
constexpr std::uint8_t kRowPositionElided = 1u << 1;
// Minimum encoded sizes, for the decoder's count sanity bounds.
constexpr std::size_t kMinGroupRowBytes = 30;        // both fields elided
constexpr std::size_t kMinGroupTransitionBytes = 21;  // kind+group+leader+count

void PutGroupModel(std::string* out, const GroupModel& m) {
  PutU32(out, m.route);
  PutDirection(out, m.direction);
  PutF64(out, m.speed);
  PutF64(out, m.anchor_time);
  PutF64(out, m.anchor_distance);
  PutF64(out, m.window_lo);
  PutF64(out, m.window_hi);
  PutF64(out, m.vmax);
  PutF64(out, m.width);
}

bool GetGroupModel(Cursor* cursor, GroupModel* m) {
  std::uint32_t route = 0;
  if (!cursor->GetU32(&route) || !GetDirection(cursor, &m->direction) ||
      !cursor->GetF64(&m->speed) || !cursor->GetF64(&m->anchor_time) ||
      !cursor->GetF64(&m->anchor_distance) ||
      !cursor->GetF64(&m->window_lo) || !cursor->GetF64(&m->window_hi) ||
      !cursor->GetF64(&m->vmax) || !cursor->GetF64(&m->width)) {
    return false;
  }
  m->route = route;
  return true;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string FrameRecord(const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<std::uint32_t>(payload.size()));
  PutU32(&frame, util::Crc32cMask(util::Crc32c(payload)));
  frame += payload;
  return frame;
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload;
  PutU8(&payload, static_cast<std::uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kInsert:
      PutU64(&payload, record.id);
      PutU32(&payload, static_cast<std::uint32_t>(record.label.size()));
      payload += record.label;
      PutAttribute(&payload, record.attr);
      break;
    case WalRecordType::kUpdate:
      PutU64(&payload, record.update.object);
      PutF64(&payload, record.update.time);
      PutU32(&payload, record.update.route);
      PutF64(&payload, record.update.route_distance);
      PutF64(&payload, record.update.position.x);
      PutF64(&payload, record.update.position.y);
      PutDirection(&payload, record.update.direction);
      PutF64(&payload, record.update.speed);
      break;
    case WalRecordType::kErase:
      PutU64(&payload, record.id);
      break;
    case WalRecordType::kUpdateBatch:
      PutU32(&payload, static_cast<std::uint32_t>(record.batch.size()));
      for (const WalRecord& sub : record.batch) {
        const std::string sub_payload = EncodeWalRecord(sub);
        PutU32(&payload, static_cast<std::uint32_t>(sub_payload.size()));
        payload += sub_payload;
      }
      break;
    case WalRecordType::kGroupBatch: {
      PutF64(&payload, record.group_base_time);
      PutU32(&payload, static_cast<std::uint32_t>(record.group_rows.size()));
      for (const GroupWalRow& row : record.group_rows) {
        std::uint8_t flags = 0;
        if (row.time_elided) flags |= kRowTimeElided;
        if (row.position_elided) flags |= kRowPositionElided;
        PutU8(&payload, flags);
        PutU64(&payload, row.update.object);
        PutU32(&payload, row.update.route);
        PutDirection(&payload, row.update.direction);
        PutF64(&payload, row.update.speed);
        PutF64(&payload, row.update.route_distance);
        if (!row.time_elided) PutF64(&payload, row.update.time);
        if (!row.position_elided) {
          PutF64(&payload, row.update.position.x);
          PutF64(&payload, row.update.position.y);
        }
      }
      PutU32(&payload,
             static_cast<std::uint32_t>(record.group_transitions.size()));
      for (const GroupTransition& t : record.group_transitions) {
        PutU8(&payload, static_cast<std::uint8_t>(t.kind));
        PutU64(&payload, t.group);
        PutU64(&payload, t.leader);
        if (t.kind == GroupTransitionKind::kForm ||
            t.kind == GroupTransitionKind::kRefresh) {
          PutGroupModel(&payload, t.model);
        }
        PutU32(&payload, static_cast<std::uint32_t>(t.members.size()));
        for (core::ObjectId m : t.members) PutU64(&payload, m);
      }
      break;
    }
  }
  return payload;
}

bool DecodeWalRecord(std::string_view payload, WalRecord* record) {
  Cursor cursor(payload);
  std::uint8_t type = 0;
  if (!cursor.GetU8(&type)) return false;
  switch (type) {
    case static_cast<std::uint8_t>(WalRecordType::kInsert): {
      record->type = WalRecordType::kInsert;
      if (!cursor.GetU64(&record->id) || !cursor.GetString(&record->label) ||
          !GetAttribute(&cursor, &record->attr)) {
        return false;
      }
      break;
    }
    case static_cast<std::uint8_t>(WalRecordType::kUpdate): {
      record->type = WalRecordType::kUpdate;
      core::PositionUpdate& u = record->update;
      std::uint32_t route = 0;
      if (!cursor.GetU64(&u.object) || !cursor.GetF64(&u.time) ||
          !cursor.GetU32(&route) || !cursor.GetF64(&u.route_distance) ||
          !cursor.GetF64(&u.position.x) || !cursor.GetF64(&u.position.y) ||
          !GetDirection(&cursor, &u.direction) || !cursor.GetF64(&u.speed)) {
        return false;
      }
      u.route = route;
      break;
    }
    case static_cast<std::uint8_t>(WalRecordType::kErase): {
      record->type = WalRecordType::kErase;
      if (!cursor.GetU64(&record->id)) return false;
      break;
    }
    case static_cast<std::uint8_t>(WalRecordType::kGroupBatch): {
      record->type = WalRecordType::kGroupBatch;
      std::uint32_t row_count = 0;
      if (!cursor.GetF64(&record->group_base_time) ||
          !cursor.GetU32(&row_count)) {
        return false;
      }
      // Each row costs at least its fully-elided encoding; a count beyond
      // that is corruption, not a huge batch.
      if (row_count > payload.size() / kMinGroupRowBytes) return false;
      record->group_rows.clear();
      record->group_rows.reserve(row_count);
      for (std::uint32_t i = 0; i < row_count; ++i) {
        GroupWalRow row;
        std::uint8_t flags = 0;
        std::uint32_t route = 0;
        if (!cursor.GetU8(&flags) ||
            flags > (kRowTimeElided | kRowPositionElided) ||
            !cursor.GetU64(&row.update.object) || !cursor.GetU32(&route) ||
            !GetDirection(&cursor, &row.update.direction) ||
            !cursor.GetF64(&row.update.speed) ||
            !cursor.GetF64(&row.update.route_distance)) {
          return false;
        }
        row.update.route = route;
        row.time_elided = (flags & kRowTimeElided) != 0;
        row.position_elided = (flags & kRowPositionElided) != 0;
        if (row.time_elided) {
          row.update.time = record->group_base_time;
        } else if (!cursor.GetF64(&row.update.time)) {
          return false;
        }
        if (!row.position_elided &&
            (!cursor.GetF64(&row.update.position.x) ||
             !cursor.GetF64(&row.update.position.y))) {
          return false;
        }
        record->group_rows.push_back(row);
      }
      std::uint32_t transition_count = 0;
      if (!cursor.GetU32(&transition_count)) return false;
      if (transition_count > payload.size() / kMinGroupTransitionBytes) {
        return false;
      }
      record->group_transitions.clear();
      record->group_transitions.reserve(transition_count);
      for (std::uint32_t i = 0; i < transition_count; ++i) {
        GroupTransition t;
        std::uint8_t kind = 0;
        if (!cursor.GetU8(&kind)) return false;
        if (kind < static_cast<std::uint8_t>(GroupTransitionKind::kForm) ||
            kind > static_cast<std::uint8_t>(GroupTransitionKind::kRefresh)) {
          return false;
        }
        t.kind = static_cast<GroupTransitionKind>(kind);
        if (!cursor.GetU64(&t.group) || !cursor.GetU64(&t.leader)) {
          return false;
        }
        if (t.kind == GroupTransitionKind::kForm ||
            t.kind == GroupTransitionKind::kRefresh) {
          if (!GetGroupModel(&cursor, &t.model)) return false;
        }
        std::uint32_t member_count = 0;
        if (!cursor.GetU32(&member_count)) return false;
        if (member_count > payload.size() / 8) return false;
        t.members.reserve(member_count);
        for (std::uint32_t j = 0; j < member_count; ++j) {
          std::uint64_t m = 0;
          if (!cursor.GetU64(&m)) return false;
          t.members.push_back(m);
        }
        record->group_transitions.push_back(std::move(t));
      }
      break;
    }
    case static_cast<std::uint8_t>(WalRecordType::kUpdateBatch): {
      record->type = WalRecordType::kUpdateBatch;
      std::uint32_t count = 0;
      if (!cursor.GetU32(&count)) return false;
      // Every sub-record costs at least its length prefix, so a count
      // beyond that is corruption, not a huge batch.
      if (count > payload.size() / 4) return false;
      record->batch.clear();
      record->batch.reserve(std::min<std::uint32_t>(count, 1024));
      std::string sub_payload;
      for (std::uint32_t i = 0; i < count; ++i) {
        if (!cursor.GetString(&sub_payload)) return false;
        // Nesting depth is exactly one; rejecting a nested batch *before*
        // the recursive decode also bounds the recursion itself.
        if (!sub_payload.empty() &&
            (static_cast<std::uint8_t>(sub_payload[0]) ==
                 static_cast<std::uint8_t>(WalRecordType::kUpdateBatch) ||
             static_cast<std::uint8_t>(sub_payload[0]) ==
                 static_cast<std::uint8_t>(WalRecordType::kGroupBatch))) {
          return false;
        }
        WalRecord sub;
        if (!DecodeWalRecord(sub_payload, &sub)) return false;
        record->batch.push_back(std::move(sub));
      }
      break;
    }
    default:
      return false;
  }
  return cursor.AtEnd();
}

std::string WalSegmentFileName(std::uint64_t epoch, std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wal-%08" PRIu64 "-%08" PRIu64 ".log", epoch,
                seq);
  return buf;
}

std::vector<WalSegmentInfo> ListWalSegments(const std::string& dir) {
  std::vector<WalSegmentInfo> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    WalSegmentInfo info;
    char trailer = 0;
    if (std::sscanf(name.c_str(), "wal-%" SCNu64 "-%" SCNu64 ".lo%c",
                    &info.epoch, &info.seq, &trailer) == 3 &&
        trailer == 'g') {
      info.path = entry.path().string();
      segments.push_back(std::move(info));
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch : a.seq < b.seq;
            });
  return segments;
}

util::Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& dir, std::uint64_t epoch, WalWriterOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create " + dir + ": " +
                                  ec.message());
  }
  if (!options.file_factory) {
    options.file_factory = util::DefaultWritableFileFactory();
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(dir, epoch, std::move(options)));
  if (util::Status s = writer->OpenNextSegment(); !s.ok()) return s;
  return writer;
}

WalWriter::~WalWriter() { (void)Close(); }

util::Status WalWriter::Poison(util::Status status) {
  if (poison_.ok()) poison_ = status;
  return status;
}

util::Status WalWriter::WithSegmentContext(util::Status status,
                                          const std::string& path) const {
  if (status.ok()) return status;
  // Idempotent: errors forwarded through several layers keep one prefix.
  if (status.message().rfind("wal epoch ", 0) == 0) return status;
  return util::Status(status.code(), "wal epoch " + std::to_string(epoch_) +
                                         " segment " + path + ": " +
                                         status.message());
}

std::string WalWriter::SegmentPath(std::uint64_t seq) const {
  return (std::filesystem::path(dir_) / WalSegmentFileName(epoch_, seq))
      .string();
}

util::Status WalWriter::OpenNextSegment() {
  if (segment_ != nullptr) {
    // Under a bounded sync window the rotated-away segment must be durable
    // before appends continue in the next one, or a crash could lose a
    // mid-log run of records while newer (synced) ones survive — recovery
    // would then stop at the hole anyway, voiding the window guarantee.
    if (BoundedSyncWindow() && unsynced_appends_ > 0) {
      if (util::Status s = Sync(); !s.ok()) return s;
    }
    if (util::Status s = segment_->Close(); !s.ok()) {
      return Poison(WithSegmentContext(std::move(s), segment_path_));
    }
  }
  ++seq_;
  const std::string path = SegmentPath(seq_);
  auto file = options_.file_factory(path);
  if (!file.ok()) {
    // The old segment is already closed; appending anywhere now would
    // leave a gap, so the writer is done.
    if (segment_ != nullptr) {
      return Poison(WithSegmentContext(file.status(), path));
    }
    return WithSegmentContext(file.status(), path);
  }
  segment_ = std::move(*file);
  segment_path_ = path;
  segment_bytes_ = 0;
  if (seq_ > 1 && rotations_counter_ != nullptr) {
    rotations_counter_->Increment();
  }
  return util::Status::Ok();
}

util::Status WalWriter::AppendRecord(const WalRecord& record) {
  return AppendEncoded(EncodeWalRecord(record));
}

util::Status WalWriter::AppendEncoded(const std::string& payload) {
  if (closed_) return util::Status::FailedPrecondition("WAL closed");
  if (!poison_.ok()) return poison_;
  if (segment_bytes_ >= options_.segment_max_bytes) {
    if (util::Status s = OpenNextSegment(); !s.ok()) return s;
  }
  const std::string frame = FrameRecord(payload);
  if (util::Status s = segment_->Append(frame); !s.ok()) {
    return Poison(WithSegmentContext(std::move(s), segment_path_));
  }
  segment_bytes_ += frame.size();
  bytes_ += frame.size();
  ++appends_;
  unsynced_bytes_ += frame.size();
  ++unsynced_appends_;
  if (appends_counter_ != nullptr) appends_counter_->Increment();
  if (bytes_counter_ != nullptr) bytes_counter_->Increment(frame.size());
  return MaybeSync();
}

util::Status WalWriter::MaybeSync() {
  bool due = options_.sync_every_append;
  if (!due && options_.sync_every_bytes > 0 &&
      unsynced_bytes_ >= options_.sync_every_bytes) {
    due = true;
  }
  if (!due && options_.sync_interval_ms > 0.0) {
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - last_sync_)
            .count();
    due = elapsed_ms >= options_.sync_interval_ms;
  }
  if (!due) return util::Status::Ok();
  return Sync();
}

util::Status WalWriter::AppendInsert(core::ObjectId id, std::string_view label,
                                     const core::PositionAttribute& attr) {
  WalRecord record;
  record.type = WalRecordType::kInsert;
  record.id = id;
  record.label = label;
  record.attr = attr;
  return AppendRecord(record);
}

util::Status WalWriter::AppendUpdate(const core::PositionUpdate& update) {
  WalRecord record;
  record.type = WalRecordType::kUpdate;
  record.update = update;
  return AppendRecord(record);
}

util::Status WalWriter::AppendErase(core::ObjectId id) {
  WalRecord record;
  record.type = WalRecordType::kErase;
  record.id = id;
  return AppendRecord(record);
}

util::Status WalWriter::AppendBatch(const std::vector<WalRecord>& records) {
  if (records.empty()) return util::Status::Ok();
  if (records.size() == 1) return AppendRecord(records[0]);
  std::vector<std::string> encoded;
  encoded.reserve(records.size());
  for (const WalRecord& record : records) {
    if (record.type == WalRecordType::kUpdateBatch ||
        record.type == WalRecordType::kGroupBatch) {
      return util::Status::InvalidArgument("nested WAL batch");
    }
    encoded.push_back(EncodeWalRecord(record));
  }
  // Pack length-prefixed sub-records into chunk payloads, splitting before
  // the reader's payload sanity bound. The common batch fits in one chunk:
  // one frame, one append, one group-commit trigger check.
  std::size_t i = 0;
  while (i < encoded.size()) {
    std::string payload;
    PutU8(&payload, static_cast<std::uint8_t>(WalRecordType::kUpdateBatch));
    std::uint32_t count = 0;
    std::string body;
    while (i < encoded.size() &&
           (count == 0 ||
            body.size() + 4 + encoded[i].size() <= kBatchChunkPayloadBytes)) {
      PutU32(&body, static_cast<std::uint32_t>(encoded[i].size()));
      body += encoded[i];
      ++count;
      ++i;
    }
    PutU32(&payload, count);
    payload += body;
    if (util::Status s = AppendEncoded(payload); !s.ok()) return s;
  }
  return util::Status::Ok();
}

util::Status WalWriter::AppendUpdateBatch(
    const std::vector<core::PositionUpdate>& updates) {
  std::vector<WalRecord> records;
  records.reserve(updates.size());
  for (const core::PositionUpdate& update : updates) {
    WalRecord record;
    record.type = WalRecordType::kUpdate;
    record.update = update;
    records.push_back(std::move(record));
  }
  return AppendBatch(records);
}

util::Status WalWriter::AppendGroupBatch(
    const std::vector<core::PositionUpdate>& updates,
    const std::vector<GroupTransition>& transitions,
    const geo::RouteNetwork& network) {
  if (updates.empty() && transitions.empty()) return util::Status::Ok();
  // Decide per-row position elision up front: a position that bit-equals
  // the route geometry at the row's route distance (the common case — the
  // sender computed it the same way) costs nothing in the log and is
  // rehydrated exactly on replay. A route without two points has no
  // geometry to compare with.
  std::vector<GroupWalRow> rows;
  rows.reserve(updates.size());
  for (const core::PositionUpdate& update : updates) {
    GroupWalRow row;
    row.update = update;
    if (const auto route = network.FindRoute(update.route);
        route.ok() && (*route)->Valid()) {
      const geo::Point2 p = (*route)->PointAt(update.route_distance);
      row.position_elided = SameBits(p.x, update.position.x) &&
                            SameBits(p.y, update.position.y);
    }
    rows.push_back(row);
  }
  // Pack rows into chunk records, splitting before the reader's payload
  // sanity bound; each chunk carries its own base time (its first row's),
  // and the transitions ride the last chunk so replay applies them after
  // every member row of the batch.
  std::size_t i = 0;
  bool emitted = false;
  while (i < rows.size() || !emitted) {
    WalRecord chunk;
    chunk.type = WalRecordType::kGroupBatch;
    chunk.group_base_time = i < rows.size() ? rows[i].update.time : 0.0;
    std::size_t body = 0;
    while (i < rows.size()) {
      GroupWalRow row = rows[i];
      row.time_elided = SameBits(row.update.time, chunk.group_base_time);
      const std::size_t row_bytes = kMinGroupRowBytes +
                                    (row.time_elided ? 0 : 8) +
                                    (row.position_elided ? 0 : 16);
      if (!chunk.group_rows.empty() &&
          body + row_bytes > kBatchChunkPayloadBytes) {
        break;
      }
      body += row_bytes;
      chunk.group_rows.push_back(std::move(row));
      ++i;
    }
    if (i == rows.size()) chunk.group_transitions = transitions;
    if (util::Status s = AppendRecord(chunk); !s.ok()) return s;
    emitted = true;
  }
  return util::Status::Ok();
}

util::Status WalWriter::Sync() {
  if (closed_) return util::Status::FailedPrecondition("WAL closed");
  if (!poison_.ok()) return poison_;
  if (unsynced_appends_ == 0) return util::Status::Ok();
  if (syncs_counter_ != nullptr) syncs_counter_->Increment();
  if (util::Status s = segment_->Sync(); !s.ok()) {
    return Poison(WithSegmentContext(std::move(s), segment_path_));
  }
  if (batch_hist_ != nullptr) {
    // Group-commit batch size: records flushed by this fsync (the
    // histogram's "µs" unit reads as a record count here).
    batch_hist_->RecordNanos(unsynced_appends_ * 1000);
  }
  unsynced_appends_ = 0;
  unsynced_bytes_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  return util::Status::Ok();
}

util::Status WalWriter::TryReopen() {
  if (closed_) return util::Status::FailedPrecondition("WAL closed");
  if (segment_ != nullptr) {
    // Best-effort close: the segment is suspect, and close flushes what
    // stdio buffered — the most durability the abandoned tail can get.
    (void)segment_->Close();
    segment_.reset();
  }
  // Decide where the log resumes. If the current sequence number's file
  // made it to disk, drop any torn frame past the last whole-frame
  // boundary (`segment_bytes_` counts only fully-appended frames) and
  // move to the next sequence number. If it never did — the poisoned
  // rotation's open failed — reuse the same number: replay treats a
  // sequence gap as corruption and would drop everything after it.
  const std::string current = SegmentPath(seq_);
  const auto size = util::FileSize(current);
  if (size.ok()) {
    if (*size > segment_bytes_) {
      if (util::Status s = util::TruncateFile(current, segment_bytes_);
          !s.ok()) {
        // The torn tail is still on disk; clearing the poison now would
        // let the log grow past a frame replay stops at.
        return WithSegmentContext(std::move(s), current);
      }
    }
    ++seq_;
  }
  const std::string path = SegmentPath(seq_);
  auto file = options_.file_factory(path);
  if (!file.ok()) {
    // Still poisoned; the caller's retry loop comes back later.
    return WithSegmentContext(file.status(), path);
  }
  segment_ = std::move(*file);
  segment_path_ = path;
  segment_bytes_ = 0;
  // Frames of the abandoned segment can no longer be fsynced through this
  // writer; they are flushed, not synced (see header). The counters track
  // the *open* group-commit batch, which is now empty.
  unsynced_appends_ = 0;
  unsynced_bytes_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  if (rotations_counter_ != nullptr) rotations_counter_->Increment();
  poison_ = util::Status::Ok();
  return util::Status::Ok();
}

util::Status WalWriter::Close() {
  if (closed_) return util::Status::Ok();
  closed_ = true;
  if (segment_ == nullptr) return util::Status::Ok();
  return segment_->Close();
}

void WalWriter::SetMetrics(util::MetricsRegistry* registry,
                           const std::string& prefix) {
  if (registry == nullptr) {
    appends_counter_ = nullptr;
    bytes_counter_ = nullptr;
    syncs_counter_ = nullptr;
    rotations_counter_ = nullptr;
    batch_hist_ = nullptr;
    return;
  }
  appends_counter_ = registry->GetCounter(prefix + "appends");
  bytes_counter_ = registry->GetCounter(prefix + "bytes");
  syncs_counter_ = registry->GetCounter(prefix + "syncs");
  rotations_counter_ = registry->GetCounter(prefix + "rotations");
  batch_hist_ = registry->GetLatency(prefix + "group_commit_batch");
}

util::Result<WalReplayStats> ReplayWal(
    const std::string& dir, std::uint64_t epoch,
    const std::function<util::Status(const WalRecord&)>& apply,
    util::FileReader reader) {
  std::error_code ec;
  const bool exists = std::filesystem::is_directory(dir, ec);
  if (ec || !exists) {
    return util::Status::NotFound("WAL directory missing: " + dir);
  }
  if (!reader) reader = util::DefaultFileReader();

  std::vector<WalSegmentInfo> segments;
  for (WalSegmentInfo& info : ListWalSegments(dir)) {
    if (info.epoch == epoch) segments.push_back(std::move(info));
  }

  WalReplayStats stats;
  std::uint64_t expected_seq = 1;
  bool stopped = false;
  for (const WalSegmentInfo& segment : segments) {
    auto data = reader(segment.path);
    if (!data.ok()) {
      return util::Status(data.status().code(),
                          "wal epoch " + std::to_string(epoch) + " segment " +
                              segment.path + ": " + data.status().message());
    }
    // A sequence gap (a deleted or lost segment) ends the replayable
    // prefix just like a corrupt frame would.
    if (stopped || segment.seq != expected_seq++) {
      stats.bytes_truncated += data->size();
      ++stats.corrupt_segments;
      if (!stopped) {
        stats.clean = false;
        stats.detail = "segment sequence gap before " + segment.path;
        stopped = true;
      }
      continue;
    }
    ++stats.segments;

    std::string_view rest(*data);
    while (!rest.empty()) {
      Cursor header(rest.substr(0, kFrameHeaderBytes));
      std::uint32_t len = 0;
      std::uint32_t masked_crc = 0;
      const bool header_ok = header.GetU32(&len) && header.GetU32(&masked_crc);
      if (!header_ok || len > kMaxPayloadBytes ||
          rest.size() < kFrameHeaderBytes + len) {
        // Torn tail (most often a crash mid-append) or a corrupt length.
        stats.clean = false;
        stats.detail = "torn frame in " + segment.path;
        stats.bytes_truncated += rest.size();
        ++stats.corrupt_segments;
        stopped = true;
        break;
      }
      const std::string_view payload = rest.substr(kFrameHeaderBytes, len);
      WalRecord record;
      if (util::Crc32cMask(util::Crc32c(payload)) != masked_crc ||
          !DecodeWalRecord(payload, &record)) {
        stats.clean = false;
        stats.detail = "corrupt frame in " + segment.path;
        stats.bytes_truncated += rest.size();
        ++stats.corrupt_segments;
        stopped = true;
        break;
      }
      rest.remove_prefix(kFrameHeaderBytes + len);
      ++stats.records;
      stats.bytes_replayed += kFrameHeaderBytes + len;
      if (util::Status s = apply(record); !s.ok()) ++stats.records_skipped;
    }
  }
  return stats;
}

}  // namespace modb::db
