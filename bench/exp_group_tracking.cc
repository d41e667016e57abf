// E21 — group/convoy tracking: the same convoy-heavy fleet is replayed
// into two databases, one with the group tracker off (every vehicle
// maintains its own index entry) and one with it on (each detected convoy
// elects a leader whose motion model drives a single envelope entry while
// member updates become state-only rows that never touch the tree). The
// group layer is pure write-path mechanics: it must leave every
// MUST/MAY answer byte-identical. The table reports, normalised per 1M
// vehicle-updates, the index-node touches (page hits + misses of a
// disk-backed tree whose pool holds the whole working set, so every
// touch is a node visit) and the WAL bytes appended (grouped batches log
// compact member rows with recomputable time/position elided).
//
// After the run each store is reopened from its WAL directory into a
// fresh database; a grouped restart revalidates the groups, collapses them
// and packs the whole index in one load. A second table prints, ungated,
// the restart time and, on the restarted stores at their present, the
// median range / nearest query time and the range candidates examined.
//
// Shape checks (exit non-zero on failure):
//   - range / interval / nearest answers byte-identical on vs off;
//   - restarted answers byte-identical to the pre-restart ones and to the
//     restarted tracking-off store's;
//   - tracking-on formed convoys and skipped member tree work;
//   - materially fewer index-node touches per update with tracking on;
//   - fewer WAL bytes per update with tracking on.
//
// `--smoke` runs a tiny fleet for CI; `--no-speed-gate` keeps the
// relative shape checks but is accepted for symmetry with the other
// experiments (E21's checks are ratio-based, not wall-clock gates).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "bench/exp_common.h"
#include "db/mod_database.h"
#include "db/recovery.h"
#include "geo/route_network.h"
#include "sim/fleet.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace modb::bench {
namespace {

namespace fs = std::filesystem;

struct Scale {
  std::size_t num_convoys;
  std::size_t vehicles_per_convoy;
  std::size_t num_singletons;
  double duration;
  std::size_t grid;
  double grid_spacing;
};

Scale ScaleFor(bool smoke) {
  if (smoke) return {3, 6, 8, 120.0, 4, 40.0};
  return {16, 12, 80, 900.0, 8, 60.0};
}

struct RunOutcome {
  std::uint64_t updates = 0;
  std::uint64_t node_touches = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t forms = 0;
  std::uint64_t splits = 0;
  std::uint64_t member_skips = 0;
  std::uint64_t leader_upserts = 0;
  std::string answers;
  std::string restarted_answers;
  double restart_ms = 0.0;
  // Restarted store, probe grid at the store's present (see TimeQueries).
  double range_us = 0.0;          // median
  double nearest_us = 0.0;        // median
  double range_candidates = 0.0;  // mean candidates examined per range
};

using Clock = std::chrono::steady_clock;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Calls `probe(region, centre, t)` for each cell of a 3 × 3 grid over the
/// network at each of `times`.
template <typename Probe>
void ForEachProbe(double extent, std::initializer_list<core::Time> times,
                  const Probe& probe) {
  const double span = extent / 3.0;
  for (int gx = 0; gx < 3; ++gx) {
    for (int gy = 0; gy < 3; ++gy) {
      const double x0 = gx * span;
      const double y0 = gy * span;
      const geo::Polygon region =
          geo::Polygon::Rectangle(x0, y0, x0 + span, y0 + span);
      for (const core::Time t : times) {
        probe(region, geo::Point2{x0 + span * 0.5, y0 + span * 0.5}, t);
      }
    }
  }
}

/// Byte-exact rendering of range / interval / nearest answers over the
/// probe grid — the observable the group layer must not perturb.
std::string AnswerSignature(const db::ModDatabase& database, double extent,
                            double duration) {
  std::string out;
  auto render = [&out](const std::vector<core::ObjectId>& ids) {
    for (core::ObjectId id : ids) {
      out += std::to_string(id);
      out += ',';
    }
    out += ';';
  };
  const auto probe = [&](const geo::Polygon& region,
                         const geo::Point2& centre, core::Time t) {
    const db::RangeAnswer range = database.QueryRange(region, t);
    render(range.must);
    render(range.may);
    const db::IntervalRangeAnswer interval =
        database.QueryRangeInterval(region, t, t + duration * 0.1);
    render(interval.may);
    render(interval.must_at_some_time);
    const db::NearestAnswer nearest = database.QueryNearest(centre, 5, t);
    for (const auto& item : nearest.items) {
      out += std::to_string(item.id);
      out += ',';
    }
    out += ';';
  };
  ForEachProbe(extent, {duration * 0.25, duration * 0.6, duration * 0.95},
               probe);
  return out;
}

/// Median time of the probe grid's range and nearest queries at the
/// store's present (its latest update) and 5 and 10 s later, when every
/// recently updated object's plane is live; each query runs `rounds` times.
void TimeQueries(const db::ModDatabase& database, double extent, int rounds,
                 RunOutcome* out) {
  core::Time now = 0.0;
  database.ForEachRecord([&now](const db::MovingObjectRecord& record) {
    now = std::max(now, record.attr.start_time);
  });
  std::vector<double> range_us, nearest_us;
  double candidates = 0.0;
  const auto probe = [&](const geo::Polygon& region,
                         const geo::Point2& centre, core::Time t) {
    auto t0 = Clock::now();
    const db::RangeAnswer range = database.QueryRange(region, t);
    range_us.push_back(Micros(Clock::now() - t0));
    candidates += static_cast<double>(range.candidates_examined);
    t0 = Clock::now();
    (void)database.QueryNearest(centre, 5, t);
    nearest_us.push_back(Micros(Clock::now() - t0));
  };
  for (int round = 0; round < rounds; ++round) {
    ForEachProbe(extent, {now, now + 5.0, now + 10.0}, probe);
  }
  out->range_us = util::Summarize(range_us).median;
  out->nearest_us = util::Summarize(nearest_us).median;
  out->range_candidates = candidates / static_cast<double>(range_us.size());
}

/// Drives the convoy fleet through a durable store whose WAL lives in
/// `wal_dir`, recording the update-stream counters and the final answers.
bool WriteStore(const Scale& scale, const geo::RouteNetwork& network,
                const db::ModDatabaseOptions& options,
                const std::string& wal_dir, RunOutcome* out) {
  db::ModDatabase database(&network, options);

  util::MetricsRegistry registry;
  database.SetMetrics(&registry, "db.");

  db::DurabilityOptions durability_options;
  auto durability =
      db::DurabilityManager::Open(&database, wal_dir, durability_options);
  if (!durability.ok()) {
    std::fprintf(stderr, "durability open failed: %s\n",
                 durability.status().message().c_str());
    return false;
  }

  sim::FleetOptions fleet_options;
  fleet_options.tick = 1.0;
  fleet_options.verify_bounds = false;  // measured elsewhere (E5/E15)
  fleet_options.update_batch_size = 256;
  sim::FleetSimulator fleet(&database, fleet_options);

  sim::ConvoyScenarioOptions convoy;
  convoy.num_convoys = scale.num_convoys;
  convoy.vehicles_per_convoy = scale.vehicles_per_convoy;
  convoy.num_singletons = scale.num_singletons;
  convoy.spacing = 0.5;
  convoy.curve.duration = scale.duration;
  util::Rng rng(2026);  // identical fleet in both runs
  (void)sim::BuildConvoyFleet(fleet, network, convoy, rng);
  if (!fleet.RegisterAll().ok()) return false;

  // Reset the ingest-side instrumentation so the table measures the update
  // stream, not the initial bulk registration.
  const auto baseline_touches =
      registry.GetCounter("db.index.pages.hits")->value() +
      registry.GetCounter("db.index.pages.misses")->value();
  const auto baseline_wal = (*durability)->wal()->bytes();

  if (!fleet.Run().ok()) return false;

  out->updates = fleet.stats().messages_delivered();
  out->node_touches = registry.GetCounter("db.index.pages.hits")->value() +
                      registry.GetCounter("db.index.pages.misses")->value() -
                      baseline_touches;
  out->wal_bytes = (*durability)->wal()->bytes() - baseline_wal;
  out->forms = registry.GetCounter("db.group.forms")->value();
  out->splits = registry.GetCounter("db.group.splits")->value();
  out->member_skips = registry.GetCounter("db.group.member_skips")->value();
  out->leader_upserts =
      registry.GetCounter("db.group.leader_upserts")->value();
  out->answers = AnswerSignature(database, scale.grid * scale.grid_spacing,
                                 scale.duration);
  return true;
}

bool RunFleet(bool tracking, bool smoke, const fs::path& dir,
              RunOutcome* out) {
  const Scale scale = ScaleFor(smoke);
  geo::RouteNetwork network;
  network.AddGridNetwork(scale.grid, scale.grid, scale.grid_spacing);

  db::ModDatabaseOptions options;
  // Whole-working-set pool: every page access is a node visit, never an
  // artefact of eviction pressure.
  options.index_storage.kind = storage::StorageKind::kDisk;
  options.index_storage.path = (dir / "index.pages").string();
  options.index_storage.pool_pages = 1u << 20;
  // Group envelopes live in the time-space index only.
  options.index_kind = db::IndexKind::kTimeSpaceRTree;
  options.group_tracking.enabled = tracking;
  const std::string wal_dir = (dir / "wal").string();
  if (!WriteStore(scale, network, options, wal_dir, out)) return false;

  // Restart: reopen the store from its WAL directory into a fresh database
  // over the same page file.
  db::ModDatabase restarted(&network, options);
  const auto t0 = Clock::now();
  auto reopened = db::DurabilityManager::Open(&restarted, wal_dir);
  out->restart_ms = Micros(Clock::now() - t0) / 1e3;
  if (!reopened.ok()) {
    std::fprintf(stderr, "restart failed: %s\n",
                 reopened.status().message().c_str());
    return false;
  }
  const double extent = scale.grid * scale.grid_spacing;
  out->restarted_answers = AnswerSignature(restarted, extent, scale.duration);
  TimeQueries(restarted, extent, smoke ? 3 : 10, out);
  return true;
}

int Run(bool smoke) {
  PrintHeader(
      "E21: group/convoy tracking",
      "convoys share one leader-driven envelope entry, so member updates "
      "skip the tree and log compact WAL rows — at byte-identical "
      "MUST/MAY range, interval and nearest answers");

  const auto dir = fs::temp_directory_path() /
                   (smoke ? "modb_e21_smoke" : "modb_e21_full");

  RunOutcome off, on;
  for (const bool tracking : {false, true}) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    if (!RunFleet(tracking, smoke, dir, tracking ? &on : &off)) {
      fs::remove_all(dir);
      return 1;
    }
  }
  fs::remove_all(dir);

  auto per_million = [](std::uint64_t value, std::uint64_t updates) {
    return updates == 0
               ? 0.0
               : static_cast<double>(value) * 1e6 /
                     static_cast<double>(updates);
  };
  util::Table table({"tracking", "updates", "node touches/1M", "WAL B/1M",
                     "convoys", "splits", "member skips", "leader upserts"});
  for (const auto* r : {&off, &on}) {
    table.NewRow()
        .Add(r == &on ? "on" : "off")
        .Add(static_cast<std::size_t>(r->updates))
        .Add(per_million(r->node_touches, r->updates), 0)
        .Add(per_million(r->wal_bytes, r->updates), 0)
        .Add(static_cast<std::size_t>(r->forms))
        .Add(static_cast<std::size_t>(r->splits))
        .Add(static_cast<std::size_t>(r->member_skips))
        .Add(static_cast<std::size_t>(r->leader_upserts));
  }
  std::printf("%s\n", table.ToString().c_str());

  // Wall-clock, so printed but not gated.
  util::Table restart({"tracking", "restart ms", "range p50 us",
                       "nearest p50 us", "range candidates"});
  for (const auto* r : {&off, &on}) {
    restart.NewRow()
        .Add(r == &on ? "on" : "off")
        .Add(r->restart_ms, 1)
        .Add(r->range_us, 1)
        .Add(r->nearest_us, 1)
        .Add(r->range_candidates, 1);
  }
  std::printf("after restart:\n%s\n", restart.ToString().c_str());

  bool pass = true;
  const bool identical =
      off.updates == on.updates && off.answers == on.answers;
  std::printf("shape check — %llu updates, answers byte-identical on vs "
              "off: %s\n",
              static_cast<unsigned long long>(on.updates),
              identical ? "PASS" : "FAIL");
  pass = pass && identical;

  const bool restarted = on.restarted_answers == on.answers &&
                         off.restarted_answers == off.answers &&
                         on.restarted_answers == off.restarted_answers;
  std::printf("shape check — restarted answers byte-identical to the "
              "pre-restart ones and on vs off: %s\n",
              restarted ? "PASS" : "FAIL");
  pass = pass && restarted;

  const bool grouped = on.forms > 0 && on.member_skips > 0;
  std::printf("shape check — tracker formed convoys and skipped member "
              "tree work: %s\n",
              grouped ? "PASS" : "FAIL");
  pass = pass && grouped;

  const double touch_ratio =
      off.node_touches == 0
          ? 1.0
          : static_cast<double>(on.node_touches) /
                static_cast<double>(off.node_touches);
  const bool fewer_touches = touch_ratio <= 0.9;
  std::printf("shape check — index-node touches per update on/off <= 0.9: "
              "%s (ratio %.3f)\n",
              fewer_touches ? "PASS" : "FAIL", touch_ratio);
  pass = pass && fewer_touches;

  const double wal_ratio =
      off.wal_bytes == 0 ? 1.0
                         : static_cast<double>(on.wal_bytes) /
                               static_cast<double>(off.wal_bytes);
  const bool fewer_bytes = wal_ratio < 1.0;
  std::printf("shape check — WAL bytes per update on/off < 1.0: %s "
              "(ratio %.3f)\n\n",
              fewer_bytes ? "PASS" : "FAIL", wal_ratio);
  pass = pass && fewer_bytes;

  return pass ? 0 : 1;
}

}  // namespace
}  // namespace modb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    // --no-speed-gate accepted for CI symmetry; E21 has no wall-clock gate.
  }
  return modb::bench::Run(smoke);
}
