// Seeded mutation fuzzing of the readers of untrusted bytes: the query
// language, the snapshot reader and WAL replay. Each test applies a fixed
// number of `util::Rng` edits (byte flips, insertions, truncations) to
// valid inputs. Every mutated input must end in a Status: no crash, no
// hang, and no bad access under AddressSanitizer.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "db/mod_database.h"
#include "db/query_language.h"
#include "db/snapshot.h"
#include "db/wal.h"
#include "geo/route_network.h"
#include "util/rng.h"

namespace modb::db {
namespace {

namespace fs = std::filesystem;
using namespace std::string_view_literals;

/// Bytes and tokens that steer a mutation towards the readers' edges.
constexpr std::string_view kTokens[] = {
    "0"sv,   "-1"sv,  "1e308"sv, "-1e308"sv, "18446744073709551616"sv,
    "1e20"sv, "nan"sv, "inf"sv,  "."sv,      "e"sv,
    ","sv,   "("sv,   ")"sv,     " "sv,      "\n"sv,
    "\0"sv,  "AT"sv,  "TO"sv,    "DURING"sv, "9"sv, "-0"sv};

/// One to three edits of `text`: overwrite a byte, insert a byte or a
/// token, or truncate.
std::string Mutate(std::string text, util::Rng& rng) {
  for (std::int64_t edits = rng.UniformInt(1, 3); edits > 0; --edits) {
    const auto size = static_cast<std::int64_t>(text.size());
    const auto byte = [&rng] {
      return static_cast<char>(rng.UniformInt(0, 255));
    };
    switch (rng.UniformInt(0, 3)) {
      case 0:
        if (size > 0) text[rng.UniformInt(0, size - 1)] = byte();
        break;
      case 1:
        text.insert(text.begin() + rng.UniformInt(0, size), byte());
        break;
      case 2:
        text.insert(static_cast<std::size_t>(rng.UniformInt(0, size)),
                    kTokens[rng.UniformInt(
                        0, static_cast<std::int64_t>(std::size(kTokens)) - 1)]);
        break;
      default:
        text.resize(static_cast<std::size_t>(rng.UniformInt(0, size)));
        break;
    }
  }
  return text;
}

core::PositionAttribute Attr(const geo::RouteNetwork& network,
                             geo::RouteId route, double s, double speed) {
  core::PositionAttribute attr;
  attr.start_time = 1.0;
  attr.route = route;
  attr.start_route_distance = s;
  attr.start_position = network.route(route).PointAt(s);
  attr.speed = speed;
  attr.max_speed = 2.0;
  return attr;
}

core::PositionUpdate Update(const geo::RouteNetwork& network,
                            core::ObjectId id, core::Time t, double s) {
  core::PositionUpdate update;
  update.object = id;
  update.time = t;
  update.route = 0;
  update.route_distance = s;
  update.position = network.route(0).PointAt(s);
  update.speed = 1.0;
  return update;
}

class MutationFuzzTest : public testing::Test {
 protected:
  MutationFuzzTest() {
    network_.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "main st");
    network_.AddRoute(
        geo::Polyline({{0.0, 10.0}, {30.0, 10.0}, {30.0, 40.0}}), "bend");
  }

  geo::RouteNetwork network_;
};

// Every parsed statement also runs against a small store, as a shell
// would run it.
TEST_F(MutationFuzzTest, QueryLanguageEndsInAStatus) {
  ModDatabase db(&network_);
  for (core::ObjectId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(db.Insert(id, "o", Attr(network_, id % 2, 5.0 * id, 1.0))
                    .ok());
  }
  const std::vector<std::string> seeds = {
      "POSITION OF 3 AT 6.5",
      "SELECT ALL INSIDE RECT(0, -1, 20, 1) AT 6",
      "SELECT MUST INSIDE CIRCLE(3, 4, 1.5) DURING 10 TO 20",
      "SELECT MAY INSIDE RECT(0, -1, 20, 1) AT 6 ALLOW PARTIAL",
      "NEAREST 3 TO POINT(5, 5) AT 12 STRICT",
      "SUBSCRIBE 42 TO MAY INSIDE RECT(0, -1, 20, 1) AT 6",
      "SUBSCRIBE 7 TO ALL INSIDE CIRCLE(10, 0, 5) DURING 1 TO 9",
      "UNSUBSCRIBE 42",
      "EVENTS",
  };
  util::Rng rng(2024);
  std::size_t parsed = 0;
  for (int i = 0; i < 50000; ++i) {
    const std::string text =
        Mutate(seeds[static_cast<std::size_t>(rng.UniformInt(
                   0, static_cast<std::int64_t>(seeds.size()) - 1))],
               rng);
    const auto query = ParseQuery(text);
    if (!query.ok()) {
      ASSERT_EQ(query.status().code(), util::StatusCode::kInvalidArgument)
          << text;
      continue;
    }
    ++parsed;
    (void)ExecuteQuery(db, text);  // a Result either way
  }
  EXPECT_GT(parsed, 500u);  // the mutations do not only break the grammar
}

TEST_F(MutationFuzzTest, SnapshotReaderEndsInAStatus) {
  ModDatabaseOptions options;
  options.keep_trajectory = true;
  ModDatabase db(&network_, options);
  for (core::ObjectId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(db.Insert(id, "obj " + std::to_string(id),
                          Attr(network_, id % 2, 4.0 * id, 0.5))
                    .ok());
  }
  ASSERT_TRUE(db.ApplyUpdate(Update(network_, 2, 3.0, 40.0)).ok());
  ASSERT_TRUE(db.ApplyUpdate(Update(network_, 2, 5.0, 45.0)).ok());
  std::stringstream full;
  ASSERT_TRUE(WriteSnapshot(db, full).ok());
  const std::string text = full.str();
  ASSERT_NE(text.find("modb-snapshot 8"), std::string::npos);

  util::Rng rng(2025);
  std::size_t loaded = 0;
  for (int i = 0; i < 3000; ++i) {
    std::stringstream in(Mutate(text, rng));
    const auto snapshot = ReadSnapshot(in);
    if (snapshot.ok()) {
      ++loaded;
      EXPECT_LE(snapshot->database->num_objects(), 6u);
    } else {
      ASSERT_EQ(snapshot.status().code(), util::StatusCode::kInvalidArgument)
          << snapshot.status().message();
    }
  }
  EXPECT_GT(loaded, 0u);
}

TEST_F(MutationFuzzTest, WalReplayEndsInAStatus) {
  const fs::path dir = fs::path(testing::TempDir()) / "modb_wal_fuzz";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    auto writer = WalWriter::Open(dir.string(), 1, {});
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    for (core::ObjectId id = 1; id <= 3; ++id) {
      const core::PositionAttribute attr = Attr(network_, 0, 10.0 * id, 1.0);
      ASSERT_TRUE((*writer)->AppendInsert(id, "bus", attr).ok());
    }
    ASSERT_TRUE((*writer)->AppendUpdate(Update(network_, 1, 2.0, 15.0)).ok());
    ASSERT_TRUE((*writer)
                    ->AppendUpdateBatch({Update(network_, 2, 3.0, 25.0),
                                         Update(network_, 3, 3.0, 35.0)})
                    .ok());
    ASSERT_TRUE((*writer)->AppendErase(2).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  const auto segments = ListWalSegments(dir.string());
  ASSERT_EQ(segments.size(), 1u);
  std::string bytes;
  {
    std::ifstream in(segments[0].path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::vector<std::string> payloads;
  const auto collect = [&](const WalRecord& record) {
    payloads.push_back(EncodeWalRecord(record));
    return util::Status::Ok();
  };
  const auto clean = ReplayWal(dir.string(), 1, collect);
  ASSERT_TRUE(clean.ok() && clean->clean);
  ASSERT_EQ(payloads.size(), 6u);

  // Whole segments: the frame checks stop replay at the first bad frame.
  util::Rng rng(2026);
  for (int i = 0; i < 1500; ++i) {
    {
      std::ofstream out(segments[0].path, std::ios::binary | std::ios::trunc);
      const std::string mutated = Mutate(bytes, rng);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    const auto stats = ReplayWal(dir.string(), 1, [](const WalRecord&) {
      return util::Status::Ok();
    });
    if (stats.ok()) {
      EXPECT_LE(stats->records, 6u);
    }
  }
  // Payloads behind a valid frame: the record decoder alone.
  for (int i = 0; i < 20000; ++i) {
    const std::string payload = Mutate(
        payloads[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(payloads.size()) - 1))],
        rng);
    WalRecord record;
    (void)DecodeWalRecord(payload, &record);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace modb::db
