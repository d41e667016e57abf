#include "db/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

namespace modb::db {
namespace {

class SnapshotTest : public testing::Test {
 protected:
  SnapshotTest() {
    main_ = network_.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "main st");
    bend_ = network_.AddRoute(
        geo::Polyline({{0.0, 10.0}, {30.0, 10.0}, {30.0, 40.0}}), "bend");
  }

  core::PositionAttribute Attr(geo::RouteId route, double s, double v) const {
    core::PositionAttribute attr;
    attr.start_time = 3.5;
    attr.route = route;
    attr.start_route_distance = s;
    attr.start_position = network_.route(route).PointAt(s);
    attr.direction = core::TravelDirection::kBackward;
    attr.speed = v;
    attr.policy = core::PolicyKind::kDelayedLinear;
    attr.update_cost = 7.25;
    attr.max_speed = 1.75;
    attr.fixed_threshold = 2.5;
    attr.period = 0.5;
    attr.step_threshold = 1.25;
    return attr;
  }

  geo::RouteNetwork network_;
  geo::RouteId main_ = geo::kInvalidRouteId;
  geo::RouteId bend_ = geo::kInvalidRouteId;
};

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  ModDatabaseOptions options;
  options.index_kind = IndexKind::kTimeSpaceRTree;
  options.oplane_horizon = 77.0;
  options.oplane_slab_width = 3.5;
  ModDatabase db(&network_, options);
  ASSERT_TRUE(db.Insert(1, "cab with spaces", Attr(main_, 10.5, 1.125)).ok());
  ASSERT_TRUE(db.Insert(42, "", Attr(bend_, 20.0, 0.875)).ok());

  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(db, stream).ok());

  const auto loaded = ReadSnapshot(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ModDatabase& db2 = *loaded->database;

  // Options.
  EXPECT_EQ(db2.options().index_kind, IndexKind::kTimeSpaceRTree);
  EXPECT_DOUBLE_EQ(db2.options().oplane_horizon, 77.0);
  EXPECT_DOUBLE_EQ(db2.options().oplane_slab_width, 3.5);

  // Network.
  ASSERT_EQ(loaded->network->size(), 2u);
  EXPECT_EQ(loaded->network->route(main_).name(), "main st");
  EXPECT_DOUBLE_EQ(loaded->network->route(bend_).Length(), 60.0);

  // Objects, bit-exact attributes.
  ASSERT_EQ(db2.num_objects(), 2u);
  const auto rec = db2.Get(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->label, "cab with spaces");
  const core::PositionAttribute& a = (*rec)->attr;
  EXPECT_EQ(a.start_time, 3.5);
  EXPECT_EQ(a.route, main_);
  EXPECT_EQ(a.start_route_distance, 10.5);
  EXPECT_EQ(a.direction, core::TravelDirection::kBackward);
  EXPECT_EQ(a.speed, 1.125);
  EXPECT_EQ(a.policy, core::PolicyKind::kDelayedLinear);
  EXPECT_EQ(a.update_cost, 7.25);
  EXPECT_EQ(a.max_speed, 1.75);
  EXPECT_EQ(a.fixed_threshold, 2.5);
  EXPECT_EQ(a.period, 0.5);
  EXPECT_EQ(a.step_threshold, 1.25);
  EXPECT_TRUE(db2.Get(42).ok());
}

TEST_F(SnapshotTest, LoadedDatabaseAnswersQueries) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "x", Attr(main_, 50.0, 1.0)).ok());
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(db, stream).ok());
  const auto loaded = ReadSnapshot(stream);
  ASSERT_TRUE(loaded.ok());

  const auto a = db.QueryPosition(1, 5.0);
  const auto b = loaded->database->QueryPosition(1, 5.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->route_distance, b->route_distance);
  EXPECT_EQ(a->deviation_bound, b->deviation_bound);

  const geo::Polygon region = geo::Polygon::Rectangle(30.0, -1.0, 60.0, 1.0);
  const RangeAnswer ra = db.QueryRange(region, 5.0);
  const RangeAnswer rb = loaded->database->QueryRange(region, 5.0);
  EXPECT_EQ(ra.must, rb.must);
  EXPECT_EQ(ra.may, rb.may);
}

TEST_F(SnapshotTest, FileRoundTrip) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(9, "file-test", Attr(main_, 1.0, 1.0)).ok());
  const std::string path = testing::TempDir() + "/modb_snapshot_test.txt";
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  const auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->database->num_objects(), 1u);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadSnapshot("/nonexistent-dir/zzz.snap").status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(SnapshotTest, MalformedInputsRejected) {
  const auto expect_invalid = [](const std::string& text) {
    std::stringstream stream(text);
    const auto loaded = ReadSnapshot(stream);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  };
  expect_invalid("");
  expect_invalid("not-a-snapshot 2");
  expect_invalid("modb-snapshot 999");
  expect_invalid("modb-snapshot 1");                              // old version
  expect_invalid("modb-snapshot 2\noptions 0 60 4 0");            // truncated
  expect_invalid("modb-snapshot 2\noptions 0 60 4 0 0\nroutes x");
  expect_invalid(
      "modb-snapshot 2\noptions 0 60 4 0 0\nroutes 1\nroute 5 2 0 0 1 1 2 ab");
  expect_invalid("modb-snapshot 3\noptions 0 60 4 0 0");          // v3 truncated
}

TEST_F(SnapshotTest, TrajectoryVersionCapRoundTrips) {
  // Regression: v2 serialized only 5 of the 6 option fields, so a restored
  // database silently stopped capping trajectory history.
  ModDatabaseOptions options;
  options.keep_trajectory = true;
  options.max_trajectory_versions = 2;
  ModDatabase db(&network_, options);
  ASSERT_TRUE(db.Insert(1, "capped", Attr(main_, 0.0, 1.0)).ok());

  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(db, stream).ok());
  const auto loaded = ReadSnapshot(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->database->options().max_trajectory_versions, 2u);

  // The restored database keeps enforcing the cap.
  ModDatabase& db2 = *loaded->database;
  for (int i = 1; i <= 5; ++i) {
    core::PositionUpdate update;
    update.object = 1;
    update.time = 3.5 + i;
    update.route = main_;
    update.route_distance = 10.0 + i;
    update.position = {10.0 + i, 0.0};
    update.direction = core::TravelDirection::kForward;
    update.speed = 1.0;
    ASSERT_TRUE(db2.ApplyUpdate(update).ok()) << i;
  }
  const auto rec = db2.Get(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->past.size(), 2u);
}

TEST_F(SnapshotTest, ReadsVersion2SnapshotsWithoutCapField) {
  // A v2 snapshot (pre-cap format) must still load, defaulting the cap to
  // 0 (unlimited).
  const std::string v2 =
      "modb-snapshot 2\n"
      "options 0 120 4 0 1\n"
      "routes 1\n"
      "route 0 2 0 0 100 0 7 main st\n"
      "objects 1\n"
      "object 1 3 cab 0 0 0 0 0 1 1 0 5 1.5 0 1 1 0 0 0\n";
  std::stringstream stream(v2);
  const auto loaded = ReadSnapshot(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->database->options().keep_trajectory);
  EXPECT_EQ(loaded->database->options().max_trajectory_versions, 0u);
  EXPECT_EQ(loaded->database->num_objects(), 1u);
}

TEST_F(SnapshotTest, WritesVersion7Header) {
  // The default store runs the route-band index, kind 2.
  ModDatabase db(&network_);
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(db, stream).ok());
  EXPECT_EQ(stream.str().rfind("modb-snapshot 7\noptions 2 120 4 0 0 0 ", 0),
            0u);
}

TEST_F(SnapshotTest, ReadsVersion3SnapshotsWithoutVelocityFields) {
  // A v3 snapshot (pre-velocity-partitioning) must still load.
  const std::string v3 =
      "modb-snapshot 3\n"
      "options 0 120 4 0 0 2\n"
      "routes 1\n"
      "route 0 2 0 0 100 0 7 main st\n"
      "objects 1\n"
      "object 1 3 cab 0 0 0 0 0 1 1 0 5 1.5 0 1 1 0 0 0\n";
  std::stringstream stream(v3);
  const auto loaded = ReadSnapshot(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->database->options().max_trajectory_versions, 2u);
  EXPECT_EQ(loaded->database->num_objects(), 1u);
}

TEST_F(SnapshotTest, PreV4SnapshotsRejectVelocityIndexKind) {
  // index_kind 2 did not exist before v4; an old header naming it is
  // corrupt, not a velocity-partitioned store.
  const std::string v3 =
      "modb-snapshot 3\n"
      "options 2 120 4 0 0 0\n"
      "routes 0\n"
      "objects 0\n";
  std::stringstream stream(v3);
  const auto loaded = ReadSnapshot(stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

// Hand-written fleet shared by the version-compatibility tests: one route,
// six objects at mixed speeds. v5+ options lines end with group tracking
// off at the default group parameters, and v5+ files end with an empty
// groups section.
constexpr char kLegacyRoutes[] =
    "routes 1\n"
    "route 0 2 0 0 100 0 7 main st\n";
constexpr char kLegacyObjects[] =
    "objects 6\n"
    "object 1 1 a 0 0 5 5 0 1 0.2 0 5 1.5 0 1 1 0 0 0\n"
    "object 2 1 b 0 0 20 20 0 1 0.6 0 5 1.5 0 1 1 0 0 0\n"
    "object 3 1 c 0 0 35 35 0 1 1 0 5 1.5 0 1 1 0 0 0\n"
    "object 4 1 d 0 0 50 50 0 -1 1.4 0 5 1.5 0 1 1 0 0 0\n"
    "object 5 1 e 0 0 65 65 0 1 1.8 0 5 1.5 0 1 1 0 0 0\n"
    "object 6 1 f 0 0 80 80 0 -1 0.4 0 5 1.5 0 1 1 0 0 0\n";
constexpr char kGroupOptions[] = " 0 8 6 3 0.25 0 64\n";
constexpr char kNoGroups[] = "groups 0 0\n";

util::Result<LoadedSnapshot> ReadText(const std::string& text) {
  std::stringstream stream(text);
  return ReadSnapshot(stream);
}

TEST_F(SnapshotTest, Version5BandedStoreLoadsAsTimeSpaceRTree) {
  // A v5 checkpoint of a velocity-partitioned store: index kind 2, three
  // bands with two bounds, and the retired update-log cap (16).
  // The index is derived state, so it loads as one time-space R*-tree and
  // answers exactly like the same records written as v6.
  const std::string v5 = std::string("modb-snapshot 5\n") +
                         "options 2 120 4 16 0 0 3 2 0.5 1.5" + kGroupOptions +
                         kLegacyRoutes + kLegacyObjects + kNoGroups;
  const std::string v6 = std::string("modb-snapshot 6\n") +
                         "options 0 120 4 0 0" + kGroupOptions +
                         kLegacyRoutes + kLegacyObjects + kNoGroups;
  const auto old_store = ReadText(v5);
  ASSERT_TRUE(old_store.ok()) << old_store.status().ToString();
  const auto new_store = ReadText(v6);
  ASSERT_TRUE(new_store.ok()) << new_store.status().ToString();
  const ModDatabase& a = *old_store->database;
  const ModDatabase& b = *new_store->database;
  EXPECT_EQ(a.options().index_kind, IndexKind::kTimeSpaceRTree);
  EXPECT_EQ(a.object_index().name(), b.object_index().name());
  ASSERT_EQ(a.num_objects(), 6u);

  std::size_t must_total = 0;
  std::size_t may_total = 0;
  for (const double x0 : {0.0, 25.0, 45.0, 70.0}) {
    const geo::Polygon region = geo::Polygon::Rectangle(x0, -1.0, x0 + 20.0,
                                                        1.0);
    for (const double t : {0.0, 5.0, 15.0}) {
      const RangeAnswer ra = a.QueryRange(region, t);
      const RangeAnswer rb = b.QueryRange(region, t);
      EXPECT_EQ(ra.must, rb.must) << "x0=" << x0 << " t=" << t;
      EXPECT_EQ(ra.may, rb.may) << "x0=" << x0 << " t=" << t;
      must_total += ra.must.size();
      may_total += ra.may.size();
    }
    const IntervalRangeAnswer ia = a.QueryRangeInterval(region, 2.0, 12.0);
    const IntervalRangeAnswer ib = b.QueryRangeInterval(region, 2.0, 12.0);
    EXPECT_EQ(ia.may, ib.may) << "x0=" << x0;
    EXPECT_EQ(ia.must_at_some_time, ib.must_at_some_time) << "x0=" << x0;
  }
  // The probes are not vacuous: both answer kinds occur.
  EXPECT_GT(must_total, 0u);
  EXPECT_GT(may_total, 0u);
}

TEST_F(SnapshotTest, RetiredVelocityFieldsRejectedWhenMalformed) {
  const auto expect_invalid = [](const std::string& text) {
    const auto loaded = ReadText(text);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << text;
  };
  // v6 has no velocity-partitioned index kind.
  expect_invalid(std::string("modb-snapshot 6\n") + "options 2 120 4 0 0" +
                 kGroupOptions + kLegacyRoutes + kLegacyObjects + kNoGroups);
  // v4 band bounds are still validated before being discarded: a valid
  // pair loads, more than 1024 bounds or a non-finite bound do not.
  const std::string v4_head =
      "modb-snapshot 4\noptions 2 120 4 0 0 0 3 2 0.5 ";
  const std::string body = std::string("\n") + kLegacyRoutes + kLegacyObjects;
  EXPECT_TRUE(ReadText(v4_head + "1.5" + body).ok());
  for (const char* bad : {"inf", "nan"}) expect_invalid(v4_head + bad + body);
  std::string many = "modb-snapshot 4\noptions 2 120 4 0 0 0 1026 1025";
  for (int i = 0; i < 1025; ++i) many += " " + std::to_string(i);
  expect_invalid(many + body);
}

TEST_F(SnapshotTest, TrajectoryHistoryRoundTrips) {
  ModDatabaseOptions options;
  options.keep_trajectory = true;
  ModDatabase db(&network_, options);
  core::PositionAttribute attr = Attr(main_, 0.0, 1.0);
  attr.start_time = 0.0;
  attr.direction = core::TravelDirection::kForward;
  ASSERT_TRUE(db.Insert(1, "t", attr).ok());
  core::PositionUpdate update;
  update.object = 1;
  update.time = 10.0;
  update.route = main_;
  update.route_distance = 10.0;
  update.position = {10.0, 0.0};
  update.direction = core::TravelDirection::kForward;
  update.speed = 2.0;
  ASSERT_TRUE(db.ApplyUpdate(update).ok());

  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(db, stream).ok());
  const auto loaded = ReadSnapshot(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->database->options().keep_trajectory);
  const auto rec = loaded->database->Get(1);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ((*rec)->past.size(), 1u);
  EXPECT_DOUBLE_EQ((*rec)->past[0].speed, 1.0);
  // Time-travel queries work on the restored database.
  EXPECT_DOUBLE_EQ(loaded->database->QueryPosition(1, 5.0)->route_distance,
                   5.0);
  EXPECT_DOUBLE_EQ(loaded->database->QueryPosition(1, 12.0)->route_distance,
                   14.0);
}

TEST_F(SnapshotTest, TruncatedSnapshotsNeverLoadPartially) {
  // Robustness sweep: a snapshot cut at EVERY byte position must either be
  // rejected as InvalidArgument or parse to the complete state (possible
  // only near the end, where the lost bytes are trailing whitespace).
  // Never a crash, never a silently partial database.
  ModDatabaseOptions options;
  options.keep_trajectory = true;
  ModDatabase db(&network_, options);
  ASSERT_TRUE(db.Insert(1, "bus one", Attr(main_, 10.0, 1.0)).ok());
  ASSERT_TRUE(db.Insert(2, "bus two", Attr(bend_, 20.0, 0.5)).ok());
  core::PositionUpdate update;
  update.object = 1;
  update.time = 5.0;
  update.route = main_;
  update.route_distance = 12.0;
  update.position = {12.0, 0.0};
  update.direction = core::TravelDirection::kForward;
  update.speed = 1.5;
  ASSERT_TRUE(db.ApplyUpdate(update).ok());

  std::stringstream full;
  ASSERT_TRUE(WriteSnapshot(db, full).ok());
  const std::string text = full.str();

  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    std::stringstream stream(text.substr(0, cut));
    const auto loaded = ReadSnapshot(stream);
    if (loaded.ok()) {
      // Tolerated only when nothing meaningful was lost.
      EXPECT_EQ(loaded->database->num_objects(), 2u) << "cut at " << cut;
      EXPECT_EQ(loaded->network->size(), 2u) << "cut at " << cut;
      const auto rec = loaded->database->Get(1);
      ASSERT_TRUE(rec.ok()) << "cut at " << cut;
      EXPECT_EQ((*rec)->past.size(), 1u) << "cut at " << cut;
    } else {
      EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
          << "cut at " << cut << ": " << loaded.status().message();
    }
  }
}

TEST_F(SnapshotTest, ByteCorruptedSnapshotsNeverCrash) {
  // Flip every byte of a snapshot (one at a time) and feed it to the
  // reader. Any outcome is acceptable except a crash or a non-
  // InvalidArgument error; a successful parse must still satisfy basic
  // invariants (declared object count matches the table).
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "a", Attr(main_, 10.0, 1.0)).ok());
  ASSERT_TRUE(db.Insert(2, "b", Attr(bend_, 20.0, 0.5)).ok());
  std::stringstream full;
  ASSERT_TRUE(WriteSnapshot(db, full).ok());
  const std::string text = full.str();

  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (const char replacement : {'\0', 'X', '9', ' '}) {
      std::string corrupt = text;
      if (corrupt[pos] == replacement) continue;
      corrupt[pos] = replacement;
      std::stringstream stream(corrupt);
      const auto loaded = ReadSnapshot(stream);
      if (loaded.ok()) {
        EXPECT_LE(loaded->database->num_objects(), 2u) << "pos " << pos;
      } else {
        EXPECT_EQ(loaded.status().code(),
                  util::StatusCode::kInvalidArgument)
            << "pos " << pos << ": " << loaded.status().message();
      }
    }
  }
}

// Regression: ReadString used to `resize(len)` straight off the length
// prefix in the file, so a corrupted prefix claiming gigabytes committed
// the allocation (bad_alloc / OOM-kill) before any byte was read. An
// oversized prefix must now be a clean InvalidArgument.
TEST_F(SnapshotTest, OversizedStringPrefixRejectedWithoutAllocating) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "bus one", Attr(main_, 10.0, 1.0)).ok());
  std::stringstream full;
  ASSERT_TRUE(WriteSnapshot(db, full).ok());
  const std::string text = full.str();
  const std::string label_prefix = "7 bus one";
  const auto at = text.find(label_prefix);
  ASSERT_NE(at, std::string::npos);

  // Sweep hostile lengths: just past the 1 MiB cap, multi-GB (the original
  // OOM shape), 2^63-ish, and a "plausible but past EOF" length that only
  // the remaining-stream-size check can catch.
  for (const std::string& hostile :
       {std::string("1048577"), std::string("4294967296"),
        std::string("9223372036854775807"), std::string("4096")}) {
    std::string corrupt = text;
    corrupt.replace(at, 1, hostile);  // "7 bus one" -> "<len> bus one"
    std::stringstream stream(corrupt);
    const auto loaded = ReadSnapshot(stream);
    ASSERT_FALSE(loaded.ok()) << "len " << hostile;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << "len " << hostile << ": " << loaded.status().message();
  }
}

TEST_F(SnapshotTest, HostileOPlaneOptionsRejected) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "bus one", Attr(main_, 10.0, 1.0)).ok());
  std::stringstream full;
  ASSERT_TRUE(WriteSnapshot(db, full).ok());
  const std::string text = full.str();
  // "options <kind> <horizon> <slab width> ..."
  const auto line = text.find("\noptions ");
  ASSERT_NE(line, std::string::npos);
  const auto horizon_at = text.find(' ', text.find(' ', line + 1) + 1) + 1;
  const auto width_end = text.find(' ', text.find(' ', horizon_at) + 1);
  ASSERT_EQ(text.substr(horizon_at, width_end - horizon_at), "120 4");

  // 10^12 slabs to reserve per object; widths that index no boxes; a
  // slab count past any double; non-positive horizons; one slab past the
  // cap.
  for (const std::string& hostile :
       {std::string("1e12 1"), std::string("120 -4"), std::string("120 0"),
        std::string("1e300 1e-300"), std::string("0 4"),
        std::string("-60 4"), std::string("4097 1")}) {
    std::string corrupt = text;
    corrupt.replace(horizon_at, width_end - horizon_at, hostile);
    std::stringstream stream(corrupt);
    const auto loaded = ReadSnapshot(stream);
    ASSERT_FALSE(loaded.ok()) << hostile;
    EXPECT_EQ(loaded.status().message(), "malformed snapshot: o-plane options")
        << hostile;
  }
  // The cap itself still loads.
  std::string at_cap = text;
  at_cap.replace(horizon_at, width_end - horizon_at, "4096 1");
  std::stringstream stream(at_cap);
  EXPECT_TRUE(ReadSnapshot(stream).ok());
}

TEST_F(SnapshotTest, DeterministicOutput) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(3, "c", Attr(main_, 3.0, 1.0)).ok());
  ASSERT_TRUE(db.Insert(1, "a", Attr(main_, 1.0, 1.0)).ok());
  ASSERT_TRUE(db.Insert(2, "b", Attr(main_, 2.0, 1.0)).ok());
  std::stringstream s1;
  std::stringstream s2;
  ASSERT_TRUE(WriteSnapshot(db, s1).ok());
  ASSERT_TRUE(WriteSnapshot(db, s2).ok());
  EXPECT_EQ(s1.str(), s2.str());
  // Objects are written in id order.
  EXPECT_LT(s1.str().find("object 1"), s1.str().find("object 2"));
  EXPECT_LT(s1.str().find("object 2"), s1.str().find("object 3"));
}

TEST_F(SnapshotTest, RouteBandKindRoundTrips) {
  ModDatabaseOptions options;
  options.index_kind = IndexKind::kRouteBand;
  ModDatabase db(&network_, options);
  ASSERT_TRUE(db.Insert(1, "a", Attr(main_, 10.5, 1.125)).ok());
  ASSERT_TRUE(db.Insert(2, "b", Attr(bend_, 20.0, 0.875)).ok());
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(db, stream).ok());
  const auto loaded = ReadSnapshot(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ModDatabase& db2 = *loaded->database;
  EXPECT_EQ(db2.options().index_kind, IndexKind::kRouteBand);
  EXPECT_EQ(db2.object_index().name(), "route");
  EXPECT_EQ(db2.object_index().num_entries(), 2u);
  const geo::Polygon region = geo::Polygon::Rectangle(-5.0, -5.0, 105.0, 45.0);
  for (const double t : {3.5, 10.0, 40.0}) {
    const RangeAnswer a = db.QueryRange(region, t);
    const RangeAnswer b = db2.QueryRange(region, t);
    EXPECT_EQ(a.must, b.must) << "t=" << t;
    EXPECT_EQ(a.may, b.may) << "t=" << t;
    EXPECT_EQ(a.must.size() + a.may.size(), 2u) << "t=" << t;
  }
}

TEST_F(SnapshotTest, IndexKindRangeDependsOnVersion) {
  const auto kind_loads = [](int version, int kind) {
    return ReadText("modb-snapshot " + std::to_string(version) +
                    "\noptions " + std::to_string(kind) + " 120 4 0 0" +
                    kGroupOptions + kLegacyRoutes + kLegacyObjects +
                    kNoGroups)
        .ok();
  };
  // v7 knows kinds 0–2; kind 2 did not name the route-band index before.
  EXPECT_TRUE(kind_loads(7, 0));
  EXPECT_TRUE(kind_loads(7, 1));
  EXPECT_TRUE(kind_loads(7, 2));
  EXPECT_FALSE(kind_loads(7, 3));
  EXPECT_FALSE(kind_loads(7, -1));
  EXPECT_TRUE(kind_loads(6, 1));
  EXPECT_FALSE(kind_loads(6, 2));
  const auto v7 = ReadText(std::string("modb-snapshot 7\noptions 2 120 4 0 0") +
                           kGroupOptions + kLegacyRoutes + kLegacyObjects +
                           kNoGroups);
  ASSERT_TRUE(v7.ok()) << v7.status().ToString();
  EXPECT_EQ(v7->database->options().index_kind, IndexKind::kRouteBand);
}

}  // namespace
}  // namespace modb::db
