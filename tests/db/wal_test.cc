#include "db/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/fault_injection.h"
#include "util/metrics.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;

core::PositionAttribute MakeAttr(double start_time) {
  core::PositionAttribute attr;
  attr.start_time = start_time;
  attr.route = 7;
  attr.start_route_distance = 12.5;
  attr.start_position = {3.0, 4.0};
  attr.direction = core::TravelDirection::kBackward;
  attr.speed = 0.9;
  attr.policy = core::PolicyKind::kDelayedLinear;
  attr.update_cost = 2.5;
  attr.max_speed = 1.5;
  attr.fixed_threshold = 0.25;
  attr.period = 2.0;
  attr.step_threshold = 0.5;
  return attr;
}

core::PositionUpdate MakeUpdate(core::ObjectId id, double time) {
  core::PositionUpdate update;
  update.object = id;
  update.time = time;
  update.route = 7;
  update.route_distance = 20.0 + time;
  update.position = {1.0 + time, 2.0 - time};
  update.direction = core::TravelDirection::kForward;
  update.speed = 1.25;
  return update;
}

class WalTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(testing::TempDir()) /
            ("wal_test_" +
             std::string(testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(WalTest, RecordEncodingRoundTrips) {
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.id = 42;
  insert.label = "bus-42";
  insert.attr = MakeAttr(5.0);

  WalRecord update;
  update.type = WalRecordType::kUpdate;
  update.update = MakeUpdate(42, 6.5);

  WalRecord erase;
  erase.type = WalRecordType::kErase;
  erase.id = 42;

  for (const WalRecord& original : {insert, update, erase}) {
    const std::string payload = EncodeWalRecord(original);
    WalRecord decoded;
    ASSERT_TRUE(DecodeWalRecord(payload, &decoded));
    EXPECT_EQ(decoded.type, original.type);
    switch (original.type) {
      case WalRecordType::kInsert:
        EXPECT_EQ(decoded.id, original.id);
        EXPECT_EQ(decoded.label, original.label);
        EXPECT_EQ(decoded.attr.start_time, original.attr.start_time);
        EXPECT_EQ(decoded.attr.route, original.attr.route);
        EXPECT_EQ(decoded.attr.start_route_distance,
                  original.attr.start_route_distance);
        EXPECT_EQ(decoded.attr.start_position.x,
                  original.attr.start_position.x);
        EXPECT_EQ(decoded.attr.start_position.y,
                  original.attr.start_position.y);
        EXPECT_EQ(decoded.attr.direction, original.attr.direction);
        EXPECT_EQ(decoded.attr.speed, original.attr.speed);
        EXPECT_EQ(decoded.attr.policy, original.attr.policy);
        EXPECT_EQ(decoded.attr.update_cost, original.attr.update_cost);
        EXPECT_EQ(decoded.attr.max_speed, original.attr.max_speed);
        EXPECT_EQ(decoded.attr.fixed_threshold,
                  original.attr.fixed_threshold);
        EXPECT_EQ(decoded.attr.period, original.attr.period);
        EXPECT_EQ(decoded.attr.step_threshold,
                  original.attr.step_threshold);
        break;
      case WalRecordType::kUpdate:
        EXPECT_EQ(decoded.update.object, original.update.object);
        EXPECT_EQ(decoded.update.time, original.update.time);
        EXPECT_EQ(decoded.update.route, original.update.route);
        EXPECT_EQ(decoded.update.route_distance,
                  original.update.route_distance);
        EXPECT_EQ(decoded.update.position.x, original.update.position.x);
        EXPECT_EQ(decoded.update.position.y, original.update.position.y);
        EXPECT_EQ(decoded.update.direction, original.update.direction);
        EXPECT_EQ(decoded.update.speed, original.update.speed);
        break;
      case WalRecordType::kErase:
        EXPECT_EQ(decoded.id, original.id);
        break;
    }
  }
}

TEST_F(WalTest, DecodeRejectsMalformedPayloads) {
  WalRecord record;
  EXPECT_FALSE(DecodeWalRecord("", &record));
  EXPECT_FALSE(DecodeWalRecord("\x09", &record));  // unknown type
  EXPECT_FALSE(DecodeWalRecord("\x03\x01\x02", &record));  // short erase

  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.id = 1;
  insert.label = "m";
  insert.attr = MakeAttr(0.0);
  std::string payload = EncodeWalRecord(insert);
  // Every strict prefix must be rejected, never crash.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeWalRecord(std::string_view(payload).substr(0, len), &record))
        << "prefix length " << len;
  }
  // Trailing garbage is rejected too (frame length must match exactly).
  EXPECT_FALSE(DecodeWalRecord(payload + "x", &record));
  // An out-of-range direction byte is rejected. The direction of an insert
  // payload sits after type(1) + id(8) + label_len(4) + label(1) +
  // start_time(8) + route(4) + start_route_distance(8) + position(16).
  std::string bad = payload;
  bad[1 + 8 + 4 + 1 + 8 + 4 + 8 + 16] = '\x02';
  EXPECT_FALSE(DecodeWalRecord(bad, &record));
}

// The retired convoy framing (`kGroupBatch`): old logs hold it, so its
// decoder stays and must keep round-tripping and rejecting hostile input.
WalRecord LegacyGroupBatch() {
  WalRecord record;
  record.type = WalRecordType::kGroupBatch;
  record.group_base_time = 6.5;
  // One row per elision combination: none, time, position, both.
  for (int flags = 0; flags < 4; ++flags) {
    GroupWalRow row;
    row.time_elided = (flags & 1) != 0;
    row.position_elided = (flags & 2) != 0;
    row.update = MakeUpdate(static_cast<core::ObjectId>(10 + flags),
                            row.time_elided ? 6.5 : 7.0 + flags);
    if (row.position_elided) row.update.position = {};
    record.group_rows.push_back(row);
  }
  for (std::uint8_t kind = 1; kind <= 6; ++kind) {
    GroupTransition t;
    t.kind = static_cast<GroupTransitionKind>(kind);
    t.group = 100 + kind;
    t.leader = 10 + kind % 4;
    for (std::uint8_t m = 0; m < kind % 3 + 1; ++m) t.members.push_back(10 + m);
    if (t.kind == GroupTransitionKind::kForm ||
        t.kind == GroupTransitionKind::kRefresh) {
      t.model = {.route = 7,
                 .direction = core::TravelDirection::kBackward,
                 .speed = 1.25,
                 .anchor_time = 6.5,
                 .anchor_distance = 33.0,
                 .window_lo = 6.0,
                 .window_hi = 66.0,
                 .vmax = 1.5,
                 .width = 8.0 + kind};
    }
    record.group_transitions.push_back(t);
  }
  return record;
}

TEST_F(WalTest, GroupBatchRoundTripsElidedRowsAndEveryTransitionKind) {
  const WalRecord original = LegacyGroupBatch();
  WalRecord decoded;
  ASSERT_TRUE(DecodeWalRecord(EncodeWalRecord(original), &decoded));
  EXPECT_EQ(decoded.type, WalRecordType::kGroupBatch);
  EXPECT_EQ(decoded.group_base_time, 6.5);
  ASSERT_EQ(decoded.group_rows.size(), original.group_rows.size());
  for (std::size_t i = 0; i < original.group_rows.size(); ++i) {
    SCOPED_TRACE(i);
    const GroupWalRow& want = original.group_rows[i];
    const GroupWalRow& got = decoded.group_rows[i];
    EXPECT_EQ(got.time_elided, want.time_elided);
    EXPECT_EQ(got.position_elided, want.position_elided);
    EXPECT_EQ(got.update.object, want.update.object);
    // An elided time is rehydrated from the base time.
    EXPECT_EQ(got.update.time, want.update.time);
    EXPECT_EQ(got.update.route, want.update.route);
    EXPECT_EQ(got.update.route_distance, want.update.route_distance);
    EXPECT_EQ(got.update.direction, want.update.direction);
    EXPECT_EQ(got.update.speed, want.update.speed);
    if (!want.position_elided) {
      EXPECT_EQ(got.update.position.x, want.update.position.x);
      EXPECT_EQ(got.update.position.y, want.update.position.y);
    }
  }
  ASSERT_EQ(decoded.group_transitions.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    SCOPED_TRACE(i);
    const GroupTransition& want = original.group_transitions[i];
    const GroupTransition& got = decoded.group_transitions[i];
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.group, want.group);
    EXPECT_EQ(got.leader, want.leader);
    EXPECT_EQ(got.members, want.members);
    EXPECT_EQ(got.model.route, want.model.route);
    EXPECT_EQ(got.model.direction, want.model.direction);
    EXPECT_EQ(got.model.speed, want.model.speed);
    EXPECT_EQ(got.model.anchor_time, want.model.anchor_time);
    EXPECT_EQ(got.model.anchor_distance, want.model.anchor_distance);
    EXPECT_EQ(got.model.window_lo, want.model.window_lo);
    EXPECT_EQ(got.model.window_hi, want.model.window_hi);
    EXPECT_EQ(got.model.vmax, want.model.vmax);
    EXPECT_EQ(got.model.width, want.model.width);
  }
}

TEST_F(WalTest, GroupBatchDecodeRejectsHostilePayloads) {
  WalRecord record;
  const std::string payload = EncodeWalRecord(LegacyGroupBatch());
  ASSERT_TRUE(DecodeWalRecord(payload, &record));
  // Every strict prefix is rejected: truncated rows, transitions and
  // models alike.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeWalRecord(std::string_view(payload).substr(0, len), &record))
        << "prefix length " << len;
  }
  const auto put_u32 = [](std::string* s, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) (*s)[at + i] = static_cast<char>(v >> 8 * i);
  };
  // Layout: type(1) base_time(8) row_count(4), then the first row's flags.
  constexpr std::size_t kRowCountAt = 1 + 8;
  for (const std::uint32_t count : {0xffffffffu, 1000u}) {
    std::string bad = payload;
    put_u32(&bad, kRowCountAt, count);  // past the bytes that back it
    EXPECT_FALSE(DecodeWalRecord(bad, &record)) << count;
  }
  for (const char flags : {'\x04', '\xff'}) {
    std::string bad = payload;
    bad[kRowCountAt + 4] = flags;
    EXPECT_FALSE(DecodeWalRecord(bad, &record));
  }

  // A transitions-only record: row_count 0, transition_count(4), then one
  // kJoin: kind(1) group(8) leader(8) member_count(4) members.
  WalRecord join;
  join.type = WalRecordType::kGroupBatch;
  GroupTransition t;
  t.kind = GroupTransitionKind::kJoin;
  t.group = 3;
  t.leader = 4;
  t.members = {4};
  join.group_transitions.push_back(t);
  const std::string join_payload = EncodeWalRecord(join);
  ASSERT_TRUE(DecodeWalRecord(join_payload, &record));
  constexpr std::size_t kTransitionCountAt = kRowCountAt + 4;
  constexpr std::size_t kKindAt = kTransitionCountAt + 4;
  constexpr std::size_t kMemberCountAt = kKindAt + 1 + 8 + 8;
  for (const std::uint32_t count : {0xffffffffu, 2u}) {
    std::string bad = join_payload;
    put_u32(&bad, kTransitionCountAt, count);
    EXPECT_FALSE(DecodeWalRecord(bad, &record)) << count;
    bad = join_payload;
    put_u32(&bad, kMemberCountAt, count);
    EXPECT_FALSE(DecodeWalRecord(bad, &record)) << count;
  }
  for (const char kind : {'\x00', '\x07'}) {
    std::string bad = join_payload;
    bad[kKindAt] = kind;
    EXPECT_FALSE(DecodeWalRecord(bad, &record)) << static_cast<int>(kind);
  }
  // Turning the kJoin into a kForm makes the decoder expect a model the
  // payload does not hold.
  std::string no_model = join_payload;
  no_model[kKindAt] = static_cast<char>(GroupTransitionKind::kForm);
  EXPECT_FALSE(DecodeWalRecord(no_model, &record));

  // Nesting depth is one: a kGroupBatch inside a kUpdateBatch is rejected.
  WalRecord nested;
  nested.type = WalRecordType::kUpdateBatch;
  nested.batch = {join};
  EXPECT_FALSE(DecodeWalRecord(EncodeWalRecord(nested), &record));
}

TEST_F(WalTest, GroupBatchElidesOnlyPositionsItsRouteCanRecompute) {
  // Elision compares the position with the route geometry; a route with
  // fewer than two points has none, so its row keeps its position.
  geo::RouteNetwork network;
  const geo::RouteId line =
      network.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "line");
  const geo::RouteId stub =
      network.AddStraightRoute({3.0, 5.0}, {3.0, 5.0}, "stub");
  std::vector<core::PositionUpdate> updates(2);
  updates[0].object = 1;
  updates[0].route = line;
  updates[0].route_distance = 10.0;
  updates[0].position = network.route(line).PointAt(10.0);
  updates[1].object = 2;
  updates[1].route = stub;
  updates[1].position = {3.0, 5.0};
  auto writer = WalWriter::Open(dir_, 1, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendGroupBatch(updates, {}, network).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  std::vector<GroupWalRow> rows;
  const auto stats = ReplayWal(dir_, 1, [&](const WalRecord& record) {
    rows.insert(rows.end(), record.group_rows.begin(), record.group_rows.end());
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].position_elided);
  EXPECT_FALSE(rows[1].position_elided);
  EXPECT_EQ(rows[1].update.position.x, 3.0);
  EXPECT_EQ(rows[1].update.position.y, 5.0);
}

TEST_F(WalTest, WriteThenReplayRoundTrips) {
  WalWriterOptions options;
  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status().message();

  ASSERT_TRUE((*writer)->AppendInsert(1, "bus-1", MakeAttr(0.0)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 1.0 + i)).ok());
  }
  ASSERT_TRUE((*writer)->AppendErase(1).ok());
  EXPECT_EQ((*writer)->appends(), 7u);
  ASSERT_TRUE((*writer)->Close().ok());

  std::vector<WalRecord> replayed;
  auto stats = ReplayWal(dir_, 1, [&](const WalRecord& r) {
    replayed.push_back(r);
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_TRUE(stats->clean);
  EXPECT_EQ(stats->records, 7u);
  EXPECT_EQ(stats->bytes_replayed, (*writer)->bytes());
  EXPECT_EQ(stats->bytes_truncated, 0u);
  ASSERT_EQ(replayed.size(), 7u);
  EXPECT_EQ(replayed.front().type, WalRecordType::kInsert);
  EXPECT_EQ(replayed.front().label, "bus-1");
  EXPECT_EQ(replayed[3].type, WalRecordType::kUpdate);
  EXPECT_EQ(replayed[3].update.time, 3.0);
  EXPECT_EQ(replayed.back().type, WalRecordType::kErase);
}

TEST_F(WalTest, RotatesSegmentsAndReplaysAcrossThem) {
  WalWriterOptions options;
  options.segment_max_bytes = 128;  // a few records per segment
  auto writer = WalWriter::Open(dir_, 3, options);
  ASSERT_TRUE(writer.ok());

  const int kRecords = 40;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(9, i)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_GT((*writer)->segments_opened(), 3u);
  EXPECT_EQ(ListWalSegments(dir_).size(), (*writer)->segments_opened());

  int next_time = 0;
  auto stats = ReplayWal(dir_, 3, [&](const WalRecord& r) {
    EXPECT_EQ(r.update.time, static_cast<double>(next_time++));
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->clean);
  EXPECT_EQ(stats->records, static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(stats->segments, (*writer)->segments_opened());
}

TEST_F(WalTest, ReplayIgnoresOtherEpochs) {
  auto writer1 = WalWriter::Open(dir_, 1, {});
  ASSERT_TRUE(writer1.ok());
  ASSERT_TRUE((*writer1)->AppendErase(1).ok());
  ASSERT_TRUE((*writer1)->Close().ok());
  auto writer2 = WalWriter::Open(dir_, 2, {});
  ASSERT_TRUE(writer2.ok());
  ASSERT_TRUE((*writer2)->AppendErase(2).ok());
  ASSERT_TRUE((*writer2)->AppendErase(3).ok());
  ASSERT_TRUE((*writer2)->Close().ok());

  auto stats = ReplayWal(dir_, 2, [](const WalRecord& r) {
    EXPECT_NE(r.id, 1u);
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records, 2u);
}

TEST_F(WalTest, TornTailIsTruncatedNotFatal) {
  auto writer = WalWriter::Open(dir_, 1, {});
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, i)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  const std::string path =
      (fs::path(dir_) / WalSegmentFileName(1, 1)).string();
  auto size = util::FileSize(path);
  ASSERT_TRUE(size.ok());
  // Tear the last record in half.
  const std::uint64_t torn_size = *size - 30;
  ASSERT_TRUE(util::TruncateFile(path, torn_size).ok());

  std::uint64_t replayed = 0;
  auto stats = ReplayWal(dir_, 1, [&](const WalRecord&) {
    ++replayed;
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->clean);
  EXPECT_EQ(stats->records, 9u);
  EXPECT_EQ(replayed, 9u);
  EXPECT_EQ(stats->bytes_replayed + stats->bytes_truncated, torn_size);
  EXPECT_NE(stats->detail.find("torn frame"), std::string::npos);
}

TEST_F(WalTest, CorruptFrameStopsReplayAtPrefix) {
  auto writer = WalWriter::Open(dir_, 1, {});
  ASSERT_TRUE(writer.ok());
  std::vector<std::uint64_t> offsets;  // frame start offsets
  for (int i = 0; i < 10; ++i) {
    offsets.push_back((*writer)->bytes());
    ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, i)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  const std::string path =
      (fs::path(dir_) / WalSegmentFileName(1, 1)).string();
  // Flip a payload byte of record 6 (skip the 8-byte frame header).
  ASSERT_TRUE(util::FlipFileByte(path, offsets[6] + 8 + 3).ok());

  std::uint64_t replayed = 0;
  auto stats = ReplayWal(dir_, 1, [&](const WalRecord&) {
    ++replayed;
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->clean);
  EXPECT_EQ(replayed, 6u);  // records 0..5 survive
  EXPECT_EQ(stats->corrupt_segments, 1u);
  EXPECT_NE(stats->detail.find("corrupt frame"), std::string::npos);
}

TEST_F(WalTest, SegmentSequenceGapEndsThePrefix) {
  WalWriterOptions options;
  options.segment_max_bytes = 128;
  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, i)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  ASSERT_GT((*writer)->segments_opened(), 3u);

  // Drop segment 2: replay must stop after segment 1 and count the rest
  // as truncated.
  fs::remove(fs::path(dir_) / WalSegmentFileName(1, 2));

  std::uint64_t replayed = 0;
  auto stats = ReplayWal(dir_, 1, [&](const WalRecord&) {
    ++replayed;
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->clean);
  EXPECT_EQ(stats->segments, 1u);
  EXPECT_GT(replayed, 0u);
  EXPECT_LT(replayed, 40u);
  EXPECT_GT(stats->bytes_truncated, 0u);
  EXPECT_NE(stats->detail.find("sequence gap"), std::string::npos);
}

TEST_F(WalTest, ReplaySkipsRecordsTheApplyRejects) {
  auto writer = WalWriter::Open(dir_, 1, {});
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*writer)->AppendErase(i).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  auto stats = ReplayWal(dir_, 1, [](const WalRecord& r) {
    return r.id % 2 == 0 ? util::Status::Ok()
                         : util::Status::NotFound("odd");
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records, 4u);
  EXPECT_EQ(stats->records_skipped, 2u);
  EXPECT_TRUE(stats->clean);  // skipped applies are not corruption
}

TEST_F(WalTest, ReplayOfMissingDirectoryIsNotFound) {
  auto stats = ReplayWal(dir_ + "/nope", 1,
                         [](const WalRecord&) { return util::Status::Ok(); });
  EXPECT_FALSE(stats.ok());
}

TEST_F(WalTest, ReplayOfEmptyEpochIsCleanAndEmpty) {
  fs::create_directories(dir_);
  auto stats = ReplayWal(dir_, 5,
                         [](const WalRecord&) { return util::Status::Ok(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->clean);
  EXPECT_EQ(stats->records, 0u);
}

TEST_F(WalTest, SyncEveryAppendGoesThroughSync) {
  WalWriterOptions options;
  options.sync_every_append = true;
  util::FaultPlan plan;  // no faults; just count syncs
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();
  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendErase(1).ok());
  ASSERT_TRUE((*writer)->AppendErase(2).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(injector.syncs_attempted(), 2u);
}

TEST_F(WalTest, MetricsCountersTrackAppends) {
  util::MetricsRegistry registry;
  auto writer = WalWriter::Open(dir_, 1, {});
  ASSERT_TRUE(writer.ok());
  (*writer)->SetMetrics(&registry);
  ASSERT_TRUE((*writer)->AppendErase(1).ok());
  ASSERT_TRUE((*writer)->AppendErase(2).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ(registry.GetCounter("wal.appends")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("wal.bytes")->value(), (*writer)->bytes());
  EXPECT_EQ(registry.GetCounter("wal.syncs")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("wal.rotations")->value(), 0u);
}

TEST_F(WalTest, AppendFailsAfterClose) {
  auto writer = WalWriter::Open(dir_, 1, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_FALSE((*writer)->AppendErase(1).ok());
  EXPECT_FALSE((*writer)->Sync().ok());
  EXPECT_TRUE((*writer)->Close().ok());  // idempotent
}

TEST_F(WalTest, GroupCommitByteTriggerBatchesSyncs) {
  const std::uint64_t frame_bytes = [] {
    WalRecord record;
    record.type = WalRecordType::kErase;
    record.id = 1;
    return EncodeWalRecord(record).size() + 8;  // payload + frame header
  }();

  WalWriterOptions options;
  options.sync_every_bytes = 2 * frame_bytes;  // one sync per two appends
  util::FaultPlan plan;
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();
  util::MetricsRegistry registry;

  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  (*writer)->SetMetrics(&registry);

  ASSERT_TRUE((*writer)->AppendErase(1).ok());
  EXPECT_EQ(injector.syncs_attempted(), 0u);
  EXPECT_EQ((*writer)->unsynced_appends(), 1u);
  EXPECT_EQ((*writer)->unsynced_bytes(), frame_bytes);

  ASSERT_TRUE((*writer)->AppendErase(2).ok());  // hits the byte trigger
  EXPECT_EQ(injector.syncs_attempted(), 1u);
  EXPECT_EQ((*writer)->unsynced_appends(), 0u);
  EXPECT_EQ((*writer)->unsynced_bytes(), 0u);

  for (core::ObjectId id = 3; id <= 6; ++id) {
    ASSERT_TRUE((*writer)->AppendErase(id).ok());
  }
  EXPECT_EQ(injector.syncs_attempted(), 3u);

  // The batch distribution counted one entry per sync, each of 2 records.
  util::LatencyHistogram* batch =
      registry.GetLatency("wal.group_commit_batch");
  EXPECT_EQ(batch->count(), 3u);
  EXPECT_DOUBLE_EQ(batch->mean_micros(), 2.0);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST_F(WalTest, ExplicitPolicySyncsOnlyOnDemand) {
  WalWriterOptions options;  // all triggers off: caller-driven syncs
  util::FaultPlan plan;
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();

  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  for (core::ObjectId id = 1; id <= 20; ++id) {
    ASSERT_TRUE((*writer)->AppendErase(id).ok());
  }
  EXPECT_EQ(injector.syncs_attempted(), 0u);
  EXPECT_EQ((*writer)->unsynced_appends(), 20u);

  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ(injector.syncs_attempted(), 1u);

  // Nothing appended since: Sync is a no-op, not another fsync.
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ(injector.syncs_attempted(), 1u);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST_F(WalTest, IntervalTriggerChecksElapsedTimeAtAppend) {
  // A huge interval never comes due; a tiny one is due at every append.
  for (const double interval_ms : {1e12, 1e-9}) {
    const std::string dir = dir_ + (interval_ms > 1.0 ? "_huge" : "_tiny");
    WalWriterOptions options;
    options.sync_interval_ms = interval_ms;
    util::FaultPlan plan;
    util::FaultInjector injector(plan);
    options.file_factory = injector.factory();

    auto writer = WalWriter::Open(dir, 1, options);
    ASSERT_TRUE(writer.ok());
    for (core::ObjectId id = 1; id <= 5; ++id) {
      ASSERT_TRUE((*writer)->AppendErase(id).ok());
    }
    if (interval_ms > 1.0) {
      EXPECT_EQ(injector.syncs_attempted(), 0u);
      EXPECT_EQ((*writer)->unsynced_appends(), 5u);
    } else {
      EXPECT_EQ(injector.syncs_attempted(), 5u);
      EXPECT_EQ((*writer)->unsynced_appends(), 0u);
    }
    ASSERT_TRUE((*writer)->Close().ok());
    fs::remove_all(dir);
  }
}

TEST_F(WalTest, PoisonedAfterFailedDeferredSync) {
  // The fsync of a group-commit batch fails. The injector would happily
  // accept more *appends* — but the writer must refuse them: records
  // appended after the un-synced batch would sit beyond a potential hole
  // in the log, and recovery replays a prefix.
  WalWriterOptions options;
  options.sync_every_bytes = 1;  // every append triggers a sync
  util::FaultPlan plan;
  plan.fail_syncs_after = 0;  // every sync fails
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();

  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  const util::Status first = (*writer)->AppendErase(1);
  EXPECT_FALSE(first.ok());
  EXPECT_FALSE((*writer)->poison().ok());

  // Every later call surfaces the same sticky error.
  const util::Status later = (*writer)->AppendErase(2);
  EXPECT_FALSE(later.ok());
  EXPECT_EQ(later.message(), first.message());
  EXPECT_FALSE((*writer)->Sync().ok());
  EXPECT_EQ((*writer)->appends(), 1u);  // the second append never ran
}

TEST_F(WalTest, PoisonedAfterAppendFailure) {
  WalWriterOptions options;
  util::FaultPlan plan;
  plan.crash_after_bytes = 10;  // first append tears mid-frame
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();

  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE((*writer)->AppendErase(1).ok());
  EXPECT_FALSE((*writer)->poison().ok());
  EXPECT_FALSE((*writer)->AppendErase(2).ok());
  EXPECT_FALSE((*writer)->Sync().ok());
}

TEST_F(WalTest, TryReopenClearsPoisonAndResumesAppending) {
  WalWriterOptions options;
  options.sync_every_append = true;
  util::FaultPlan plan;
  plan.fail_syncs_after = 2;  // third sync fails...
  plan.fail_syncs_count = 1;  // ...then the fault clears
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();

  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 0.0)).ok());
  ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 1.0)).ok());
  EXPECT_FALSE((*writer)->AppendUpdate(MakeUpdate(1, 2.0)).ok());
  ASSERT_FALSE((*writer)->poison().ok());
  EXPECT_FALSE((*writer)->AppendUpdate(MakeUpdate(1, 3.0)).ok());

  ASSERT_TRUE((*writer)->TryReopen().ok());
  EXPECT_TRUE((*writer)->poison().ok());
  // Appends land in a fresh segment with clean framing.
  ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 4.0)).ok());
  ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 5.0)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  // Replay sees every fully-appended record — including the one whose
  // frame landed before its fsync failed — with no corruption.
  std::vector<double> times;
  auto stats = ReplayWal(dir_, 1, [&](const WalRecord& r) {
    times.push_back(r.update.time);
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_TRUE(stats->clean) << stats->detail;
  EXPECT_EQ(stats->segments, 2u);
  EXPECT_EQ(times, (std::vector<double>{0.0, 1.0, 2.0, 4.0, 5.0}));
}

TEST_F(WalTest, TryReopenTruncatesTornTailOfAbandonedSegment) {
  WalWriterOptions options;
  options.sync_every_append = true;  // nothing buffered in stdio
  util::FaultPlan plan;
  plan.fail_appends_after = 3;
  plan.fail_appends_count = 1;
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();

  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, i)).ok());
  }
  const std::uint64_t whole_frames = (*writer)->bytes();
  EXPECT_FALSE((*writer)->AppendUpdate(MakeUpdate(1, 3.0)).ok());
  ASSERT_FALSE((*writer)->poison().ok());

  // Simulate the torn half-frame a failed append can leave behind.
  const std::string first_path =
      (fs::path(dir_) / WalSegmentFileName(1, 1)).string();
  {
    std::ofstream out(first_path, std::ios::binary | std::ios::app);
    const char torn[8] = {0x13, 0x00, 0x00, 0x00, 't', 'o', 'r', 'n'};
    out.write(torn, sizeof torn);
  }
  auto torn_size = util::FileSize(first_path);
  ASSERT_TRUE(torn_size.ok());
  ASSERT_GT(*torn_size, whole_frames);

  ASSERT_TRUE((*writer)->TryReopen().ok());
  // The abandoned segment was cut back to its last whole-frame boundary,
  // so replay never meets the torn frame.
  auto healed_size = util::FileSize(first_path);
  ASSERT_TRUE(healed_size.ok());
  EXPECT_EQ(*healed_size, whole_frames);

  ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 4.0)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  std::vector<double> times;
  auto stats = ReplayWal(dir_, 1, [&](const WalRecord& r) {
    times.push_back(r.update.time);
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->clean) << stats->detail;
  EXPECT_EQ(times, (std::vector<double>{0.0, 1.0, 2.0, 4.0}));
}

TEST_F(WalTest, TryReopenReusesSeqWhenRotationNeverCreatedItsFile) {
  WalWriterOptions options;
  options.segment_max_bytes = 1;  // every append rotates
  util::FaultPlan plan;
  plan.fail_opens_after = 1;  // segment 2's open fails once
  plan.fail_opens_count = 1;
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();

  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 0.0)).ok());
  // This append needs segment 2; the injected open failure poisons.
  EXPECT_FALSE((*writer)->AppendUpdate(MakeUpdate(1, 1.0)).ok());
  ASSERT_FALSE((*writer)->poison().ok());

  ASSERT_TRUE((*writer)->TryReopen().ok());
  ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 2.0)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  // Sequence numbers stayed contiguous: segment 2 exists, no gap, and
  // replay walks the full chain.
  std::vector<double> times;
  auto stats = ReplayWal(dir_, 1, [&](const WalRecord& r) {
    times.push_back(r.update.time);
    return util::Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->clean) << stats->detail;
  EXPECT_EQ(times, (std::vector<double>{0.0, 2.0}));
}

TEST_F(WalTest, TryReopenFailureKeepsPoisonUntilARetrySucceeds) {
  WalWriterOptions options;
  options.segment_max_bytes = 1;
  util::FaultPlan plan;
  plan.fail_opens_after = 1;  // rotation open AND first reopen both fail
  plan.fail_opens_count = 2;
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();

  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 0.0)).ok());
  EXPECT_FALSE((*writer)->AppendUpdate(MakeUpdate(1, 1.0)).ok());

  // First remediation attempt hits the still-open fault window.
  const util::Status reopen = (*writer)->TryReopen();
  EXPECT_FALSE(reopen.ok());
  // The failure names the epoch and segment so the quarantine reason does.
  EXPECT_NE(reopen.message().find("epoch 1"), std::string::npos)
      << reopen.message();
  EXPECT_NE(reopen.message().find("wal-"), std::string::npos)
      << reopen.message();
  EXPECT_FALSE((*writer)->poison().ok()) << "failed reopen must stay poisoned";
  EXPECT_FALSE((*writer)->AppendUpdate(MakeUpdate(1, 2.0)).ok());

  // The retry loop comes back once the window closes.
  ASSERT_TRUE((*writer)->TryReopen().ok());
  EXPECT_TRUE((*writer)->poison().ok());
  ASSERT_TRUE((*writer)->AppendUpdate(MakeUpdate(1, 3.0)).ok());
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST_F(WalTest, TryReopenOnClosedWriterFails) {
  auto writer = WalWriter::Open(dir_, 1, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_FALSE((*writer)->TryReopen().ok());
}

TEST_F(WalTest, ReplayReadFaultSurfacesEpochAndSegment) {
  auto writer = WalWriter::Open(dir_, 4, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendErase(1).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  util::FaultPlan plan;
  plan.fail_reads_after = 0;
  plan.fail_reads_count = 1;
  util::FaultInjector injector(plan);
  auto stats =
      ReplayWal(dir_, 4, [](const WalRecord&) { return util::Status::Ok(); },
                injector.reader());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(injector.injected_read_faults(), 1u);
  // The I/O error names the epoch and the segment file it hit.
  EXPECT_NE(stats.status().message().find("epoch 4"), std::string::npos)
      << stats.status().message();
  EXPECT_NE(stats.status().message().find(WalSegmentFileName(4, 1)),
            std::string::npos)
      << stats.status().message();
}

TEST_F(WalTest, RotationSyncsPendingBatchUnderBoundedWindow) {
  // The byte trigger alone won't fire before the segment fills; rotation
  // must flush the pending batch anyway, or the loss window would grow to
  // a whole segment.
  WalWriterOptions options;
  options.segment_max_bytes = 64;      // a couple of records per segment
  options.sync_every_bytes = 1 << 20;  // never reached
  util::FaultPlan plan;
  util::FaultInjector injector(plan);
  options.file_factory = injector.factory();

  auto writer = WalWriter::Open(dir_, 1, options);
  ASSERT_TRUE(writer.ok());
  for (core::ObjectId id = 1; id <= 12; ++id) {
    ASSERT_TRUE((*writer)->AppendErase(id).ok());
  }
  EXPECT_GT((*writer)->segments_opened(), 1u);
  EXPECT_EQ(injector.syncs_attempted(), (*writer)->segments_opened() - 1);
  ASSERT_TRUE((*writer)->Close().ok());
}

}  // namespace
}  // namespace modb::db
