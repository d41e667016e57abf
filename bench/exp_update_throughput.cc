// E16 — staged batch ingest: the same position-update stream driven
// through the per-update write path (one WAL frame, one group-commit
// check, one index remove+reinsert per message) versus the five-stage
// batch engine (one frame, one grouped index delta per batch). The cost
// model behind the claim: a durable per-update ingest pays one fsync per
// message, a batch of B amortises the fsync — and the validate/log/index/
// notify/commit stages — over B messages. The claim under test: >= 2x ingest
// throughput at batch >= 64 on the durable path, at a byte-identical final
// store (same records, same query answers).
//
// `--smoke` runs a tiny fleet for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench/exp_common.h"
#include "db/mod_database.h"
#include "db/sharded_database.h"
#include "db/wal.h"
#include "geo/route_network.h"
#include "util/rng.h"
#include "util/table.h"

namespace modb::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

struct Workload {
  geo::RouteNetwork network;
  std::vector<core::PositionAttribute> attrs;
  // `rounds` waves over the fleet, interleaved by object (round order), so
  // consecutive stream entries hit different objects — the unfavourable
  // access pattern for any per-object locality in the write path.
  std::vector<core::PositionUpdate> updates;
  std::vector<geo::Polygon> queries;
};

std::unique_ptr<Workload> MakeWorkload(std::size_t num_objects,
                                       std::size_t rounds,
                                       std::size_t num_queries,
                                       std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->network.AddGridNetwork(20, 20, 30.0);  // 570 x 570 street grid
  util::Rng rng(seed);
  w->attrs.reserve(num_objects);
  for (std::size_t i = 0; i < num_objects; ++i) {
    core::PositionAttribute attr;
    attr.route = static_cast<geo::RouteId>(
        rng.UniformInt(0, static_cast<std::int64_t>(w->network.size()) - 1));
    const double len = w->network.route(attr.route).Length();
    attr.start_route_distance = rng.Uniform(0.0, len * 0.5);
    attr.start_position =
        w->network.route(attr.route).PointAt(attr.start_route_distance);
    attr.speed = rng.Uniform(0.5, 5.0);
    attr.update_cost = 5.0;
    attr.max_speed = 25.0;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    w->attrs.push_back(attr);
  }
  w->updates.reserve(num_objects * rounds);
  for (std::size_t r = 1; r <= rounds; ++r) {
    const double t = 10.0 * static_cast<double>(r);
    for (std::size_t i = 0; i < num_objects; ++i) {
      core::PositionUpdate u;
      u.object = static_cast<core::ObjectId>(i);
      u.time = t;
      u.route = static_cast<geo::RouteId>(
          rng.UniformInt(0, static_cast<std::int64_t>(w->network.size()) - 1));
      const double len = w->network.route(u.route).Length();
      u.route_distance = rng.Uniform(0.0, len);
      u.position = w->network.route(u.route).PointAt(u.route_distance);
      u.direction = core::TravelDirection::kForward;
      u.speed = rng.Uniform(0.5, 5.0);
      w->updates.push_back(u);
    }
  }
  w->queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    w->queries.push_back(geo::Polygon::CenteredRectangle(
        {rng.Uniform(50.0, 520.0), rng.Uniform(50.0, 520.0)}, 25.0, 25.0));
  }
  return w;
}

template <typename Db>
bool LoadFleet(Db& db, const Workload& w) {
  std::vector<db::ModDatabase::BulkObject> fleet;
  fleet.reserve(w.attrs.size());
  for (std::size_t i = 0; i < w.attrs.size(); ++i) {
    db::ModDatabase::BulkObject o;
    o.id = static_cast<core::ObjectId>(i);
    o.attr = w.attrs[i];
    fleet.push_back(std::move(o));
  }
  return db.BulkInsert(std::move(fleet)).ok();
}

/// Drives the whole stream; batch == 1 uses the plain `ApplyUpdate` entry
/// point (the historical call shape), larger batches slice the stream
/// through `ApplyUpdateBatch`. Returns updates/s, or < 0 on any failure.
template <typename Db>
double TimeIngest(Db& db, const std::vector<core::PositionUpdate>& stream,
                  std::size_t batch) {
  const auto start = Clock::now();
  if (batch <= 1) {
    for (const core::PositionUpdate& u : stream) {
      if (!db.ApplyUpdate(u).ok()) return -1.0;
    }
  } else {
    for (std::size_t i = 0; i < stream.size(); i += batch) {
      const std::size_t n = std::min(batch, stream.size() - i);
      const db::UpdateBatchResult r = db.ApplyUpdateBatch(
          std::span<const core::PositionUpdate>(stream.data() + i, n));
      if (!r.all_ok()) return -1.0;
    }
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(stream.size()) / secs;
}

/// Canonical dump of every record (attribute + counters), order-free.
template <typename Db>
std::string Fingerprint(const Db& db) {
  std::map<core::ObjectId, std::string> rows;
  db.ForEachRecord([&](const db::MovingObjectRecord& record) {
    std::ostringstream row;
    row << std::hexfloat << record.attr.start_time << ' ' << record.attr.route
        << ' ' << record.attr.start_route_distance << ' '
        << record.attr.speed << ' ' << record.update_count;
    rows[record.id] = row.str();
  });
  std::string out;
  for (const auto& [id, row] : rows) {
    out += std::to_string(id) + ':' + row + '\n';
  }
  return out;
}

template <typename Db>
bool AnswersAgree(const Db& a, const Db& b, const Workload& w,
                  core::Time t) {
  for (const auto& region : w.queries) {
    const db::RangeAnswer ra = a.QueryRange(region, t);
    const db::RangeAnswer rb = b.QueryRange(region, t);
    if (ra.must != rb.must || ra.may != rb.may) return false;
  }
  return true;
}

struct DurableRun {
  double updates_per_sec = 0.0;
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_syncs = 0;
  std::string fingerprint;
};

/// One durable ingest: fresh WAL with per-append fsync (group commit of 1,
/// the strictest no-loss setting — E14 measured the WAL knobs themselves),
/// so the frame amortisation of the batch path is visible as fewer syncs.
/// The store runs on the linear-scan index to hold index maintenance at its
/// E7 floor: this table isolates the write-path (validate/log/commit) cost,
/// while the in-memory tables above and E7/E15 cover the index side.
DurableRun RunDurable(const Workload& w, const fs::path& dir,
                      std::size_t batch) {
  DurableRun run;
  fs::remove_all(dir);
  util::MetricsRegistry registry;
  db::WalWriterOptions wal_options;
  wal_options.sync_every_append = true;
  auto writer = db::WalWriter::Open(dir.string(), 1, wal_options);
  if (!writer.ok()) return run;
  (*writer)->SetMetrics(&registry);
  db::ModDatabaseOptions db_options;
  db_options.index_kind = db::IndexKind::kLinearScan;
  db::ModDatabase db(&w.network, db_options);
  if (!LoadFleet(db, w)) return run;
  db.AttachWal(writer->get());
  run.updates_per_sec = TimeIngest(db, w.updates, batch);
  run.wal_appends = registry.GetCounter("wal.appends")->value();
  run.wal_syncs = registry.GetCounter("wal.syncs")->value();
  run.fingerprint = Fingerprint(db);
  (*writer)->Close().ok();
  fs::remove_all(dir);
  return run;
}

int RunComparison(bool smoke, bool speed_gate) {
  const std::size_t kObjects = smoke ? 200 : 4000;
  const std::size_t kRounds = smoke ? 3 : 8;
  const std::size_t kQueries = smoke ? 8 : 32;
  const std::vector<std::size_t> kBatches = {1, 16, 64, 256, 1024};
  const auto w = MakeWorkload(kObjects, kRounds, kQueries, 1998);
  const double t_final = 10.0 * static_cast<double>(kRounds) + 5.0;
  // Each timed configuration is best-of-N: fsync latency on shared storage
  // is noisy enough to swing a single short run by 30%+, and the fast run
  // is the one that reflects the work the code actually does.
  const int kTrials = smoke ? 3 : 2;

  // --- In-memory, single store: stage amortisation without the fsync
  // lever (grouped index deltas, one validation/merge pass per batch).
  std::printf("--- in-memory ModDatabase, %zu objects x %zu rounds "
              "(%zu updates) ---\n",
              kObjects, kRounds, w->updates.size());
  std::string mem_baseline_fp;
  std::unique_ptr<db::ModDatabase> mem_baseline;
  bool mem_identical = true;
  double mem_base_rate = 0.0;
  {
    util::Table table({"batch", "updates/s", "speedup"});
    for (const std::size_t batch : kBatches) {
      std::unique_ptr<db::ModDatabase> db;
      double rate = -1.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        auto attempt = std::make_unique<db::ModDatabase>(&w->network);
        if (!LoadFleet(*attempt, *w)) return 1;
        const double r = TimeIngest(*attempt, w->updates, batch);
        if (r < 0.0) return 1;
        rate = std::max(rate, r);
        db = std::move(attempt);
      }
      if (batch == 1) {
        mem_base_rate = rate;
        mem_baseline_fp = Fingerprint(*db);
        mem_baseline = std::move(db);
      } else {
        mem_identical = mem_identical &&
                        Fingerprint(*db) == mem_baseline_fp &&
                        AnswersAgree(*db, *mem_baseline, *w, t_final);
      }
      table.NewRow().Add(batch).Add(rate, 0).Add(
          mem_base_rate > 0.0 ? rate / mem_base_rate : 1.0, 2);
    }
    std::printf("%s(final stores byte-identical across batch sizes: %s)\n\n",
                table.ToString().c_str(), mem_identical ? "yes" : "NO");
  }

  // --- Durable, per-append fsync: the headline claim. Every batch is one
  // WAL frame and one sync, so appends/syncs collapse by the batch factor.
  const fs::path dir =
      fs::temp_directory_path() / "modb_exp_update_throughput";
  std::printf("--- durable ModDatabase (WAL, fsync per append; linear-scan "
              "index holds maintenance at its floor) ---\n");
  DurableRun durable_base;
  double durable_batch64_rate = 0.0;
  bool durable_identical = true;
  {
    util::Table table(
        {"batch", "updates/s", "speedup", "wal appends", "wal syncs"});
    for (const std::size_t batch : kBatches) {
      DurableRun run;
      for (int trial = 0; trial < kTrials; ++trial) {
        DurableRun attempt = RunDurable(*w, dir, batch);
        if (attempt.updates_per_sec < 0.0 || attempt.fingerprint.empty()) {
          return 1;
        }
        if (attempt.updates_per_sec > run.updates_per_sec) {
          run = std::move(attempt);
        }
      }
      if (batch == 1) {
        durable_base = run;
        // Records are index-independent, so the durable store must match
        // the in-memory default-index store byte for byte.
        durable_identical =
            durable_identical && run.fingerprint == mem_baseline_fp;
      } else {
        durable_identical =
            durable_identical && run.fingerprint == durable_base.fingerprint;
        if (batch == 64) durable_batch64_rate = run.updates_per_sec;
      }
      table.NewRow()
          .Add(batch)
          .Add(run.updates_per_sec, 0)
          .Add(durable_base.updates_per_sec > 0.0
                   ? run.updates_per_sec / durable_base.updates_per_sec
                   : 1.0,
               2)
          .Add(run.wal_appends)
          .Add(run.wal_syncs);
    }
    std::printf("%s(final stores byte-identical across batch sizes: %s)\n\n",
                table.ToString().c_str(), durable_identical ? "yes" : "NO");
  }

  // --- Sharded, in-memory: the batch partitions across shards and the
  // sub-batches run on the fan-out pool, so batching also buys write
  // parallelism a single ApplyUpdate call can never have.
  std::printf("--- sharded in-memory store (4 shards) ---\n");
  bool sharded_identical = true;
  {
    util::Table table({"batch", "updates/s", "speedup"});
    double base_rate = 0.0;
    std::string base_fp;
    for (const std::size_t batch : kBatches) {
      db::ShardedModDatabaseOptions opts;
      opts.num_shards = 4;
      std::unique_ptr<db::ShardedModDatabase> db;
      double rate = -1.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        auto attempt =
            std::make_unique<db::ShardedModDatabase>(&w->network, opts);
        if (!LoadFleet(*attempt, *w)) return 1;
        const double r = TimeIngest(*attempt, w->updates, batch);
        if (r < 0.0) return 1;
        rate = std::max(rate, r);
        db = std::move(attempt);
      }
      if (batch == 1) {
        base_rate = rate;
        base_fp = Fingerprint(*db);
      } else {
        sharded_identical =
            sharded_identical && Fingerprint(*db) == base_fp &&
            base_fp == mem_baseline_fp;  // sharding is invisible too
      }
      table.NewRow().Add(batch).Add(rate, 0).Add(
          base_rate > 0.0 ? rate / base_rate : 1.0, 2);
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  const double speedup = durable_base.updates_per_sec > 0.0
                             ? durable_batch64_rate /
                                   durable_base.updates_per_sec
                             : 0.0;
  const bool identical =
      mem_identical && durable_identical && sharded_identical;
  const bool pass = identical && (speed_gate ? speedup >= 2.0 : true);
  std::printf("shape check — durable batch-64 ingest at %.2fx the "
              "per-update rate (claim: >= 2x%s), final stores "
              "byte-identical across batch sizes and layers: %s -> %s\n\n",
              speedup,
              speed_gate ? "" : "; speed gate off, identity only",
              identical ? "yes" : "NO", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

int Run(bool smoke, bool speed_gate) {
  PrintHeader("E16: staged batch ingest vs per-update writes",
              "one WAL frame + one grouped index delta per batch amortises "
              "the per-message write cost; durable ingest at batch >= 64 "
              "runs >= 2x the per-update rate at an identical final store");
  return RunComparison(smoke, speed_gate);
}

}  // namespace
}  // namespace modb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  bool speed_gate = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    // Sanitizer-instrumented CI runs: timings are distorted (CPU inflates,
    // fsync does not), so gate only on state identity there.
    if (std::strcmp(argv[i], "--no-speed-gate") == 0) speed_gate = false;
  }
  return modb::bench::Run(smoke, speed_gate);
}
