// E19 — paged, disk-backed index storage under memory pressure: the same
// fleet and query workload run against (a) the historical all-in-memory
// R*-tree and (b) a disk-backed page file behind buffer pools sized to
// hold the whole tree (1x), a quarter of it (4x pressure), and a
// sixteenth (16x pressure). The index is a candidate filter, so storage
// placement may change cost but never answers: every configuration must
// return byte-identical MUST/MAY sets. The table reports the page-hit
// rate and eviction traffic at each pressure level — the cost curve the
// buffer pool buys in exchange for a bounded resident set — and the page
// file's size, which must stay within page size x the most pages the
// index held during the run: a write-back overwrites its page's slot.
// Every update removes the entry the index rebuilds from the stored model,
// so the index's remove-miss counter must read 0 at every level.
//
// `--smoke` runs a tiny fleet for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/exp_common.h"
#include "db/mod_database.h"
#include "geo/route_network.h"
#include "index/route_band_index.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/table.h"

namespace modb::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

struct Workload {
  geo::RouteNetwork network;
  std::vector<core::PositionAttribute> attrs;
  std::vector<core::PositionUpdate> updates;
  std::vector<geo::Polygon> queries;
};

std::unique_ptr<Workload> MakeWorkload(std::size_t num_objects,
                                       std::size_t num_queries,
                                       std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->network.AddGridNetwork(20, 20, 30.0);
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
  // One report per object at t=10 keeps the remove+reinsert path (and its
  // page traffic) in the measured window.
  w->updates.reserve(num_objects);
  for (std::size_t i = 0; i < num_objects; ++i) {
    const core::PositionAttribute& attr = w->attrs[i];
    core::PositionUpdate u;
    u.object = static_cast<core::ObjectId>(i);
    u.time = 10.0;
    u.route = attr.route;
    const double len = w->network.route(attr.route).Length();
    u.route_distance =
        std::min(len, attr.start_route_distance + attr.speed * 10.0);
    u.position = w->network.route(u.route).PointAt(u.route_distance);
    u.direction = core::TravelDirection::kForward;
    u.speed = rng.Uniform(0.5, 5.0);
    w->updates.push_back(u);
  }
  w->queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    w->queries.push_back(geo::Polygon::CenteredRectangle(
        {rng.Uniform(50.0, 520.0), rng.Uniform(50.0, 520.0)}, 40.0, 40.0));
  }
  return w;
}

std::unique_ptr<db::ModDatabase> BuildDatabase(
    const Workload& w, const db::ModDatabaseOptions& options) {
  auto database = std::make_unique<db::ModDatabase>(&w.network, options);
  std::vector<db::ModDatabase::BulkObject> fleet;
  fleet.reserve(w.attrs.size());
  for (std::size_t i = 0; i < w.attrs.size(); ++i) {
    db::ModDatabase::BulkObject o;
    o.id = static_cast<core::ObjectId>(i);
    o.attr = w.attrs[i];
    fleet.push_back(std::move(o));
  }
  if (!database->BulkInsert(std::move(fleet)).ok()) return nullptr;
  return database;
}

/// Pages the store's index holds now. E19 runs the default index kind,
/// the route-band index.
std::size_t IndexPages(const db::ModDatabase& database) {
  return static_cast<const index::RouteBandIndex&>(database.object_index())
      .rtree()
      .num_pages();
}

struct RunResult {
  double us_per_query = 0.0;
  bool identical = true;
  /// Most pages the index held, sampled after the build and after each
  /// update. An update removes pages before it adds any, so no peak falls
  /// between two samples.
  std::size_t peak_pages = 0;
};

/// Runs updates + the query sweep, checking every answer against the
/// in-memory reference database.
RunResult RunWorkload(db::ModDatabase& database,
                      const db::ModDatabase& reference, const Workload& w) {
  RunResult result;
  result.peak_pages = IndexPages(database);
  for (const auto& u : w.updates) {
    (void)database.ApplyUpdate(u);
    result.peak_pages = std::max(result.peak_pages, IndexPages(database));
  }
  const auto start = Clock::now();
  for (const auto& region : w.queries) {
    const db::RangeAnswer got = database.QueryRange(region, 15.0);
    const db::RangeAnswer want = reference.QueryRange(region, 15.0);
    if (got.must != want.must || got.may != want.may ||
        got.may_probability != want.may_probability) {
      result.identical = false;
    }
  }
  const auto end = Clock::now();
  result.us_per_query =
      std::chrono::duration<double, std::micro>(end - start).count() /
      static_cast<double>(w.queries.size());
  return result;
}

int Run(bool smoke) {
  PrintHeader(
      "E19: paged index storage under memory pressure",
      "a disk-backed R*-tree behind a clock-eviction buffer pool returns "
      "byte-identical range answers at 1x, 4x and 16x memory pressure; "
      "only the page-hit rate degrades");

  const std::size_t kObjects = smoke ? 400 : 8000;
  const std::size_t kQueries = smoke ? 16 : 64;
  const auto dir =
      fs::temp_directory_path() / ("modb_exp_paged_" + std::to_string(
                                       static_cast<unsigned>(kObjects)));
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto w = MakeWorkload(kObjects, kQueries, 1998);
  db::ModDatabaseOptions memory_options;  // the in-memory reference
  auto reference = BuildDatabase(*w, memory_options);
  if (reference == nullptr) return 1;
  for (const auto& u : w->updates) (void)reference->ApplyUpdate(u);

  // Pilot: an effectively unbounded pool runs the same workload to learn
  // the tree's peak page count, so the pressure levels below are sized in
  // units of the real working set. The update wave grows the tree past its
  // size after the bulk build.
  std::size_t total_pages = 0;
  {
    db::ModDatabaseOptions pilot = memory_options;
    pilot.index_storage.kind = storage::StorageKind::kDisk;
    pilot.index_storage.path = (dir / "pilot.pages").string();
    pilot.index_storage.pool_pages = 1u << 20;
    auto database = BuildDatabase(*w, pilot);
    if (database == nullptr) return 1;
    total_pages = RunWorkload(*database, *reference, *w).peak_pages;
  }
  std::printf("index working set: %zu pages (peak) of %zu objects\n\n",
              total_pages, kObjects);

  util::Table table({"config", "pool pages", "hit rate %", "evictions",
                     "writebacks", "resident pages", "peak pages",
                     "file KiB", "remove misses", "us/query", "identical"});
  bool all_identical = true;
  bool pressured_evictions = false;
  bool files_bounded = true;
  bool no_remove_miss = true;
  for (const std::size_t pressure : {std::size_t{1}, std::size_t{4},
                                     std::size_t{16}}) {
    const std::size_t pool =
        std::max<std::size_t>(4, total_pages / pressure);
    db::ModDatabaseOptions options = memory_options;
    options.index_storage.kind = storage::StorageKind::kDisk;
    options.index_storage.path =
        (dir / ("x" + std::to_string(pressure) + ".pages")).string();
    options.index_storage.pool_pages = pool;
    util::MetricsRegistry registry;  // outlives the store
    auto database = BuildDatabase(*w, options);
    if (database == nullptr) return 1;
    database->SetMetrics(&registry, "db.");

    const RunResult result = RunWorkload(*database, *reference, *w);
    const auto hits = registry.GetCounter("db.index.pages.hits")->value();
    const auto misses = registry.GetCounter("db.index.pages.misses")->value();
    const auto evictions =
        registry.GetCounter("db.index.pages.evictions")->value();
    const auto writebacks =
        registry.GetCounter("db.index.pages.writebacks")->value();
    const auto frames = registry.GetGauge("db.index.pages.frames")->value();
    const auto remove_misses =
        registry.GetCounter("db.index.remove_miss")->value();
    no_remove_miss = no_remove_miss && remove_misses == 0;
    const std::uintmax_t file_bytes =
        fs::file_size(options.index_storage.path);
    files_bounded =
        files_bounded && file_bytes <= options.index_storage.page_size *
                                           result.peak_pages;
    const double hit_rate =
        hits + misses == 0
            ? 100.0
            : 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses);
    table.NewRow()
        .Add("working set " + std::to_string(pressure) + "x pool")
        .Add(pool)
        .Add(hit_rate, 2)
        .Add(evictions)
        .Add(writebacks)
        .Add(static_cast<std::size_t>(frames))
        .Add(result.peak_pages)
        .Add(static_cast<double>(file_bytes) / 1024.0, 1)
        .Add(remove_misses)
        .Add(result.us_per_query, 1)
        .Add(result.identical ? "yes" : "NO");
    all_identical = all_identical && result.identical;
    if (pressure == 16 && evictions > 0) pressured_evictions = true;
    // The pool really bounded residency (a small overshoot is legal for
    // frames pinned mid-operation).
    if (static_cast<std::size_t>(frames) > pool + 8) all_identical = false;
  }
  std::printf("%s\n", table.ToString().c_str());

  const bool pass = all_identical && pressured_evictions && files_bounded &&
                    no_remove_miss;
  std::printf("shape check — answers byte-identical at every pressure "
              "level: %s; 16x pool saw real eviction traffic: %s; page "
              "files within page size x peak pages: %s; no remove miss at "
              "any level: %s -> %s\n\n",
              all_identical ? "yes" : "NO",
              pressured_evictions ? "yes" : "NO",
              files_bounded ? "yes" : "NO", no_remove_miss ? "yes" : "NO",
              pass ? "PASS" : "FAIL");
  fs::remove_all(dir);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace modb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return modb::bench::Run(smoke);
}
