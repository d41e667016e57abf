// E17 — continuous queries on the delta stream: a registry of standing
// MAY/MUST region queries maintained incrementally (each subscription's
// region is clipped once into route-distance intervals, so each committed
// record becomes a join of its route band against its own route's
// intervals) versus the naive architecture that re-evaluates every
// standing query against every committed record. The claim under test:
// at 10k standing queries the route-space join runs >= 10x fewer
// predicate evaluations than the naive rescan, at a byte-identical event
// stream — and the stream is also byte-identical between batched and
// sequential ingest and between the sharded and unsharded layers.
//
// `--smoke` runs small standing-query counts for CI; `--no-eval-gate`
// reports without failing (not used by CI, kept symmetrical with E16's
// `--no-speed-gate`).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/exp_common.h"
#include "db/mod_database.h"
#include "db/sharded_database.h"
#include "db/subscription_engine.h"
#include "geo/route_network.h"
#include "util/rng.h"
#include "util/table.h"

namespace modb::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Workload {
  geo::RouteNetwork network;
  std::vector<db::ModDatabase::BulkObject> fleet;
  std::vector<core::PositionUpdate> updates;  // interleaved rounds
};

std::unique_ptr<Workload> MakeWorkload(std::size_t num_objects,
                                       std::size_t rounds,
                                       std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->network.AddGridNetwork(20, 20, 30.0);  // 570 x 570 street grid
  util::Rng rng(seed);
  const auto routes = static_cast<std::int64_t>(w->network.size());
  w->fleet.reserve(num_objects);
  for (std::size_t i = 0; i < num_objects; ++i) {
    db::ModDatabase::BulkObject o;
    o.id = static_cast<core::ObjectId>(i);
    o.attr.route = static_cast<geo::RouteId>(rng.UniformInt(0, routes - 1));
    const double len = w->network.route(o.attr.route).Length();
    o.attr.start_route_distance = rng.Uniform(0.0, len * 0.5);
    o.attr.start_position =
        w->network.route(o.attr.route).PointAt(o.attr.start_route_distance);
    o.attr.speed = rng.Uniform(0.5, 5.0);
    o.attr.update_cost = 5.0;
    o.attr.max_speed = 25.0;
    o.attr.policy = core::PolicyKind::kAverageImmediateLinear;
    w->fleet.push_back(std::move(o));
  }
  w->updates.reserve(num_objects * rounds);
  for (std::size_t r = 1; r <= rounds; ++r) {
    const double t = 10.0 * static_cast<double>(r);
    for (std::size_t i = 0; i < num_objects; ++i) {
      core::PositionUpdate u;
      u.object = static_cast<core::ObjectId>(i);
      u.time = t;
      u.route = static_cast<geo::RouteId>(rng.UniformInt(0, routes - 1));
      const double len = w->network.route(u.route).Length();
      u.route_distance = rng.Uniform(0.0, len);
      u.position = w->network.route(u.route).PointAt(u.route_distance);
      u.direction = core::TravelDirection::kForward;
      u.speed = rng.Uniform(0.5, 5.0);
      w->updates.push_back(u);
    }
  }
  return w;
}

/// `count` standing queries: 30x30 watch rectangles over the grid, mixed
/// modes, half AT an instant, half DURING a window. Deterministic in
/// `seed` so every store registers the identical set.
std::vector<db::SubscriptionSpec> MakeSubscriptions(std::size_t count,
                                                    std::uint64_t seed) {
  std::vector<db::SubscriptionSpec> specs;
  specs.reserve(count);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    db::SubscriptionSpec spec;
    spec.region = geo::Polygon::CenteredRectangle(
        {rng.Uniform(20.0, 550.0), rng.Uniform(20.0, 550.0)}, 15.0, 15.0);
    spec.mode = static_cast<db::SubscriptionMode>(rng.UniformInt(0, 2));
    if (rng.Uniform() < 0.5) {
      spec.time = rng.Uniform(0.0, 50.0);
    } else {
      spec.windowed = true;
      spec.time = rng.Uniform(0.0, 25.0);
      spec.window_end = rng.Uniform(25.0, 50.0);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct MatcherRun {
  double updates_per_sec = -1.0;
  std::uint64_t evals = 0;
  std::vector<std::string> stream;
};

/// Loads the fleet, registers `specs`, drives `stream` in batches of
/// `batch` (1 = sequential ApplyUpdate), and renders the event stream.
/// The engine attaches *after* the bulk load: E17 measures the standing
/// cost of the update stream, not the one-time load.
MatcherRun RunMatcher(const Workload& w,
                      const std::vector<db::SubscriptionSpec>& specs,
                      std::span<const core::PositionUpdate> stream,
                      std::size_t batch, bool naive) {
  MatcherRun run;
  db::ModDatabase database(&w.network);
  if (!database.BulkInsert(w.fleet).ok()) return run;
  db::SubscriptionEngine::Options options;
  options.naive_rescan = naive;
  db::SubscriptionEngine engine(&w.network, options);
  database.AttachSubscriptions(&engine);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!engine.Subscribe(static_cast<db::SubscriptionId>(i), specs[i])
             .ok()) {
      return run;
    }
  }

  const auto start = Clock::now();
  if (batch <= 1) {
    for (const core::PositionUpdate& u : stream) {
      if (!database.ApplyUpdate(u).ok()) return run;
    }
  } else {
    for (std::size_t i = 0; i < stream.size(); i += batch) {
      const std::size_t n = std::min(batch, stream.size() - i);
      if (!database.ApplyUpdateBatch(stream.subspan(i, n)).all_ok()) {
        return run;
      }
    }
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();

  run.updates_per_sec = static_cast<double>(stream.size()) / secs;
  run.evals = engine.evals();
  for (const auto& event : engine.TakeEvents()) {
    run.stream.push_back(event.ToString());
  }
  return run;
}

bool StreamsEqual(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  return a == b;
}

int RunComparison(bool smoke, bool eval_gate) {
  const std::size_t kObjects = smoke ? 150 : 1500;
  const std::size_t kRounds = smoke ? 2 : 3;
  const std::vector<std::size_t> kSubCounts =
      smoke ? std::vector<std::size_t>{100, 1000}
            : std::vector<std::size_t>{1000, 10000, 100000};
  const std::size_t kGateSubs = smoke ? 1000 : 10000;
  // Bound the naive baseline's work per row: it pays subs x deltas pair
  // evaluations, so large registries get a shorter slice of the stream
  // (both architectures see the identical slice — the comparison stands).
  const std::uint64_t kEvalBudget = smoke ? 2'000'000 : 20'000'000;

  const auto w = MakeWorkload(kObjects, kRounds, 1998);

  std::printf("--- standing-query matching: route-space join vs naive "
              "rescan (%zu objects, batch-64 ingest) ---\n",
              kObjects);
  bool streams_identical = true;
  double gate_ratio = 0.0;
  {
    util::Table table({"standing queries", "stream len", "evals (join)",
                       "evals (naive)", "evals saved", "updates/s (join)",
                       "updates/s (naive)", "events", "identical"});
    for (const std::size_t subs : kSubCounts) {
      const std::size_t slice_len = std::min(
          w->updates.size(),
          std::max<std::size_t>(120, kEvalBudget / std::max<std::size_t>(
                                         subs, 1)));
      const std::span<const core::PositionUpdate> slice(w->updates.data(),
                                                        slice_len);
      const auto specs = MakeSubscriptions(subs, 7);
      const MatcherRun join = RunMatcher(*w, specs, slice, 64, false);
      const MatcherRun naive = RunMatcher(*w, specs, slice, 64, true);
      if (join.updates_per_sec < 0.0 || naive.updates_per_sec < 0.0) {
        std::printf("matcher run failed\n");
        return 1;
      }
      const bool identical = StreamsEqual(join.stream, naive.stream);
      streams_identical = streams_identical && identical;
      const double ratio = join.evals > 0
                               ? static_cast<double>(naive.evals) /
                                     static_cast<double>(join.evals)
                               : 0.0;
      if (subs == kGateSubs) gate_ratio = ratio;
      table.NewRow()
          .Add(subs)
          .Add(slice_len)
          .Add(join.evals)
          .Add(naive.evals)
          .Add(ratio, 1)
          .Add(join.updates_per_sec, 0)
          .Add(naive.updates_per_sec, 0)
          .Add(join.stream.size())
          .Add(identical ? "yes" : "NO");
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  // --- Ingest-shape parity: the event stream must not depend on how the
  // mutations were framed (sequential / batch-64) or on the concurrency
  // layer (4-shard store matching into one registry's per-shard
  // partitions, merged by input slot).
  std::printf("--- ingest-shape parity (%zu standing queries, full "
              "stream) ---\n",
              std::min<std::size_t>(kSubCounts.front(), 1000));
  bool parity = true;
  {
    const auto specs =
        MakeSubscriptions(std::min<std::size_t>(kSubCounts.front(), 1000), 7);
    const std::span<const core::PositionUpdate> stream(w->updates.data(),
                                                       w->updates.size());
    // All three stores register their standing queries *before* the bulk
    // load, so the compared streams include the load's enter events — the
    // BulkInsert event merge is part of the parity claim.
    auto unsharded = [&](std::size_t batch) -> std::vector<std::string> {
      db::ModDatabase database(&w->network);
      db::SubscriptionEngine engine(&w->network);
      database.AttachSubscriptions(&engine);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!engine.Subscribe(static_cast<db::SubscriptionId>(i), specs[i])
                 .ok()) {
          return {};
        }
      }
      if (!database.BulkInsert(w->fleet).ok()) return {};
      if (batch <= 1) {
        for (const core::PositionUpdate& u : stream) {
          if (!database.ApplyUpdate(u).ok()) return {};
        }
      } else {
        for (std::size_t i = 0; i < stream.size(); i += batch) {
          const std::size_t n = std::min(batch, stream.size() - i);
          if (!database.ApplyUpdateBatch(stream.subspan(i, n)).all_ok()) {
            return {};
          }
        }
      }
      std::vector<std::string> rendered;
      for (const auto& event : engine.TakeEvents()) {
        rendered.push_back(event.ToString());
      }
      return rendered;
    };
    const std::vector<std::string> sequential = unsharded(1);
    const std::vector<std::string> batched = unsharded(64);

    db::ShardedModDatabaseOptions sharded_options;
    sharded_options.num_shards = 4;
    sharded_options.enable_subscriptions = true;
    db::ShardedModDatabase sharded(&w->network, sharded_options);
    std::vector<std::string> sharded_stream;
    bool sharded_ok = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      sharded_ok = sharded_ok &&
                   sharded
                       .Subscribe(static_cast<db::SubscriptionId>(i),
                                  specs[i])
                       .ok();
    }
    sharded_ok = sharded_ok && sharded.BulkInsert(w->fleet).ok();
    for (std::size_t i = 0; sharded_ok && i < stream.size(); i += 64) {
      const std::size_t n = std::min<std::size_t>(64, stream.size() - i);
      sharded_ok = sharded.ApplyUpdateBatch(stream.subspan(i, n)).all_ok();
    }
    for (const auto& event : sharded.TakeSubscriptionEvents()) {
      sharded_stream.push_back(event.ToString());
    }
    if (sequential.empty() || batched.empty() || !sharded_ok) {
      std::printf("parity run failed\n");
      return 1;
    }

    const bool batch_eq = StreamsEqual(sequential, batched);
    const bool shard_eq = StreamsEqual(batched, sharded_stream);
    parity = batch_eq && shard_eq;
    std::printf("events: %zu; batch-64 == sequential: %s; "
                "4-shard == unsharded: %s\n\n",
                sequential.size(), batch_eq ? "yes" : "NO",
                shard_eq ? "yes" : "NO");
  }

  const bool identical = streams_identical && parity;
  const bool pass =
      identical && (eval_gate ? gate_ratio >= 10.0 : true);
  std::printf("shape check — route-space join at %zu standing queries runs "
              "%.1fx fewer predicate evaluations than the naive rescan "
              "(claim: >= 10x%s), event streams byte-identical across "
              "matcher modes, ingest shapes, and layers: %s -> %s\n\n",
              kGateSubs, gate_ratio,
              eval_gate ? "" : "; eval gate off, identity only",
              identical ? "yes" : "NO", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

int Run(bool smoke, bool eval_gate) {
  PrintHeader(
      "E17: continuous queries — incremental matching vs naive rescan",
      "clipping each standing query into route-distance intervals turns "
      "each committed record into a join of its route band against its "
      "own route's intervals: >= 10x fewer predicate evaluations than "
      "re-evaluating every standing query per record, at a "
      "byte-identical transition-event stream");
  return RunComparison(smoke, eval_gate);
}

}  // namespace
}  // namespace modb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  bool eval_gate = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--no-eval-gate") == 0) eval_gate = false;
  }
  return modb::bench::Run(smoke, eval_gate);
}
