// E14: durability tax — update throughput with the WAL off, on (OS page
// cache), on with group commit (fsync per MiB), and on with
// fsync-per-append, plus recovery time as a function of log length.
//
// Workload: a fleet of dead-reckoning vehicles on an urban grid, a pure
// position-update firehose (the paper's dominant operation). The WAL
// appends one ~60-byte checksummed frame per update before the in-memory
// commit; "group" fsyncs once per MiB of frames (bounding power-cut loss
// to that window); "fsync" forces every frame to durable storage (group
// commit of 1 — the worst case). Recovery opens the directory for an
// empty store (`DurabilityManager::Open`), which copies in the bootstrap
// checkpoint and bulk-replays the whole log: records are staged into the
// fleet map and the index is rebuilt once via its packed bulk load.
//
// The four modes run in 9 interleaved rounds, each round starting at the
// next mode so no mode always runs first, and the table prints each
// mode's median. A ratio to WAL-off is taken within a round (the same
// host load on both sides), and the gates read the median of those
// ratios. One ~0.5 s firehose per mode moved the WAL-off rate alone
// between 162k and 274k updates/s from run to run on a 4-core VM, so one
// round decides nothing.
//
// Shape checks (exit non-zero on failure):
//   - WAL-on (no fsync) sustains at least half the WAL-off throughput;
//   - group commit sustains at least 0.9x the WAL-off throughput;
//   - recovery replays every appended record and restores the full fleet;
//   - replay sustains >= 40k records/s (10x the pre-bulk-replay ~4k/s).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "bench/exp_common.h"
#include "db/mod_database.h"
#include "db/recovery.h"
#include "geo/route_network.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace modb::bench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kFleetSize = 1024;
constexpr std::size_t kUpdates = 100000;      // off / wal modes
constexpr std::size_t kFsyncUpdates = 2000;   // fsync is ~3 orders slower
constexpr std::size_t kRounds = 9;  // interleaved rounds of the four modes

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
      .count();
}

void LoadFleet(const geo::RouteNetwork& network, db::ModDatabase* db) {
  std::vector<db::ModDatabase::BulkObject> batch;
  util::Rng rng(7);
  const auto& routes = network.routes();
  for (core::ObjectId id = 0; id < kFleetSize; ++id) {
    const geo::Route& route = routes[id % routes.size()];
    db::ModDatabase::BulkObject object;
    object.id = id;
    object.attr.route = route.id();
    object.attr.start_route_distance = rng.Uniform(0.0, route.Length() * 0.9);
    object.attr.start_position =
        route.PointAt(object.attr.start_route_distance);
    object.attr.speed = rng.Uniform(0.2, 1.2);
    object.attr.max_speed = 1.5;
    object.attr.policy = core::PolicyKind::kAverageImmediateLinear;
    batch.push_back(std::move(object));
  }
  if (!db->BulkInsert(std::move(batch)).ok()) {
    std::fprintf(stderr, "fleet load failed\n");
    std::abort();
  }
}

/// Applies `count` updates (monotone time per object) and returns seconds.
double UpdateFirehose(const geo::RouteNetwork& network, db::ModDatabase* db,
                      std::size_t count) {
  util::Rng rng(42);
  const auto& routes = network.routes();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const core::ObjectId id = i % kFleetSize;
    const geo::Route& route = routes[id % routes.size()];
    core::PositionUpdate update;
    update.object = id;
    update.time = 1.0 + static_cast<double>(i / kFleetSize);
    update.route = route.id();
    update.route_distance = rng.Uniform(0.0, route.Length() * 0.9);
    update.position = route.PointAt(update.route_distance);
    update.direction = core::TravelDirection::kForward;
    update.speed = rng.Uniform(0.2, 1.2);
    if (!db->ApplyUpdate(update).ok()) {
      std::fprintf(stderr, "update %zu failed\n", i);
      std::abort();
    }
  }
  return Seconds(t0, std::chrono::steady_clock::now());
}

struct ModeResult {
  std::string mode;
  std::size_t updates = 0;
  double seconds = 0.0;
  double updates_per_sec = 0.0;
};

ModeResult RunMode(const geo::RouteNetwork& network, const std::string& mode,
                   const std::string& dir) {
  db::ModDatabase db(&network);
  LoadFleet(network, &db);

  std::unique_ptr<db::DurabilityManager> durability;
  std::size_t count = kUpdates;
  if (mode != "off") {
    fs::remove_all(dir);
    db::DurabilityOptions options;
    if (mode == "group") {
      options.wal.sync_every_bytes = 1ull << 20;
    } else if (mode == "fsync") {
      options.wal.sync_every_append = true;
      count = kFsyncUpdates;
    }
    auto opened = db::DurabilityManager::Open(&db, dir, options);
    if (!opened.ok()) {
      std::fprintf(stderr, "durability open failed: %s\n",
                   opened.status().message().c_str());
      std::abort();
    }
    durability = std::move(*opened);
  }

  ModeResult result;
  result.mode = mode;
  result.updates = count;
  result.seconds = UpdateFirehose(network, &db, count);
  result.updates_per_sec = static_cast<double>(count) / result.seconds;
  durability.reset();
  fs::remove_all(dir);
  return result;
}

struct RecoveryResult {
  std::size_t log_records = 0;
  double recover_ms = 0.0;
  std::uint64_t replayed = 0;
  std::size_t objects = 0;
  bool clean = false;
};

RecoveryResult RunRecovery(const geo::RouteNetwork& network,
                           const std::string& dir, std::size_t log_records) {
  fs::remove_all(dir);
  {
    db::ModDatabase db(&network);
    LoadFleet(network, &db);
    auto opened = db::DurabilityManager::Open(&db, dir, {});
    if (!opened.ok()) std::abort();
    (void)UpdateFirehose(network, &db, log_records);
  }

  const auto t0 = std::chrono::steady_clock::now();
  db::ModDatabase recovered(&network);
  auto durability = db::DurabilityManager::Open(&recovered, dir, {});
  const double seconds = Seconds(t0, std::chrono::steady_clock::now());
  RecoveryResult result;
  result.log_records = log_records;
  result.recover_ms = seconds * 1e3;
  if (durability.ok()) {
    const db::RecoveryReport& report = (*durability)->recovery_report();
    result.replayed = report.wal_records_replayed;
    result.objects = recovered.num_objects();
    result.clean = report.clean;
  }
  fs::remove_all(dir);
  return result;
}

}  // namespace
}  // namespace modb::bench

int main() {
  using namespace modb::bench;

  PrintHeader("E14 WAL overhead & recovery",
              "write-ahead logging makes the MOD store durable at a small "
              "throughput tax (OS-cached appends), with crash recovery "
              "bounded by checkpoint + log-replay time (systems extension; "
              "not a claim of the 1998 paper)");

  modb::geo::RouteNetwork network;
  network.AddGridNetwork(10, 10, 100.0);
  const std::string dir =
      (fs::temp_directory_path() / "modb_e14_wal_overhead").string();

  // --- update throughput per durability mode -----------------------------
  // runs[m][r]: mode m in round r. Each round runs every mode once,
  // starting at mode r mod 4.
  const std::vector<std::string> modes = {"off", "wal", "group", "fsync"};
  std::vector<std::vector<ModeResult>> runs(
      modes.size(), std::vector<ModeResult>(kRounds));
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < modes.size(); ++i) {
      const std::size_t m = (round + i) % modes.size();
      runs[m][round] = RunMode(network, modes[m], dir);
    }
  }
  modb::util::Table table({"mode", "updates", "median seconds",
                           "median updates/s", "median vs off"});
  // Median over rounds of each mode's rate divided by WAL-off's in the
  // same round.
  std::vector<double> median_ratio(modes.size());
  for (std::size_t m = 0; m < modes.size(); ++m) {
    std::vector<double> seconds;
    std::vector<double> rates;
    std::vector<double> ratios;
    for (std::size_t round = 0; round < kRounds; ++round) {
      const ModeResult& r = runs[m][round];
      seconds.push_back(r.seconds);
      rates.push_back(r.updates_per_sec);
      ratios.push_back(r.updates_per_sec / runs[0][round].updates_per_sec);
    }
    median_ratio[m] = modb::util::Summarize(ratios).median;
    table.NewRow()
        .Add(modes[m])
        .Add(runs[m][0].updates)
        .Add(modb::util::Summarize(seconds).median, 3)
        .Add(modb::util::Summarize(rates).median, 0)
        .Add(median_ratio[m], 3);
  }
  std::printf("%zu interleaved rounds per mode\n%s\n", kRounds,
              table.ToString().c_str());

  // --- recovery time vs log length ---------------------------------------
  modb::util::Table recovery_table({"log records", "recover ms", "records/s",
                                    "replayed", "objects", "clean"});
  std::vector<RecoveryResult> recoveries;
  for (const std::size_t log_records :
       {std::size_t{10000}, std::size_t{40000}, std::size_t{160000}}) {
    const RecoveryResult r = RunRecovery(network, dir, log_records);
    recoveries.push_back(r);
    recovery_table.NewRow()
        .Add(r.log_records)
        .Add(r.recover_ms, 1)
        .Add(static_cast<double>(r.log_records) / (r.recover_ms * 1e-3), 0)
        .Add(static_cast<std::size_t>(r.replayed))
        .Add(r.objects)
        .Add(std::string(r.clean ? "yes" : "NO"));
  }
  std::printf("%s\n", recovery_table.ToString().c_str());

  // --- shape checks ------------------------------------------------------
  bool pass = true;
  const double wal_ratio = median_ratio[1];
  if (wal_ratio < 0.5) {
    std::printf("shape check — WAL-on >= 0.5x WAL-off throughput: FAIL "
                "(median ratio %.3f)\n",
                wal_ratio);
    pass = false;
  } else {
    std::printf("shape check — WAL-on >= 0.5x WAL-off throughput: PASS "
                "(median ratio %.3f)\n",
                wal_ratio);
  }
  const double group_ratio = median_ratio[2];
  if (group_ratio < 0.9) {
    std::printf("shape check — group commit >= 0.9x WAL-off throughput: FAIL "
                "(median ratio %.3f)\n",
                group_ratio);
    pass = false;
  } else {
    std::printf("shape check — group commit >= 0.9x WAL-off throughput: PASS "
                "(median ratio %.3f)\n",
                group_ratio);
  }
  bool recovery_ok = true;
  for (const RecoveryResult& r : recoveries) {
    if (r.replayed != r.log_records || r.objects != kFleetSize || !r.clean) {
      std::printf("shape check — recovery replays the full log (%zu): FAIL\n",
                  r.log_records);
      pass = false;
      recovery_ok = false;
    }
  }
  if (recovery_ok) {
    std::printf("shape check — recovery replays the full log at every "
                "length: PASS\n");
  }
  double worst_rate = std::numeric_limits<double>::infinity();
  for (const RecoveryResult& r : recoveries) {
    worst_rate = std::min(worst_rate, static_cast<double>(r.log_records) /
                                          (r.recover_ms * 1e-3));
  }
  if (worst_rate < 40000.0) {
    std::printf("shape check — bulk replay >= 40k records/s: FAIL "
                "(worst %.0f/s)\n",
                worst_rate);
    pass = false;
  } else {
    std::printf("shape check — bulk replay >= 40k records/s: PASS "
                "(worst %.0f/s)\n",
                worst_rate);
  }
  return pass ? 0 : 1;
}
