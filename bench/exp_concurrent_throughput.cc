// E13: concurrent update+query throughput of the sharded MOD vs. the
// single-shard baseline.
//
// Workload: T client threads, each issuing a 90/10 mix of dead-reckoning
// position updates (ApplyUpdate on its own stripe of the fleet) and range /
// nearest queries, against a ShardedModDatabase with S shards. S = 1 is the
// baseline: every operation funnels through one shard lock, which is
// exactly a mutex-wrapped single ModDatabase. The table reports aggregate
// operations per second; both speedup columns are relative to the inline
// 1-shard/1-thread cell.
//
// Each cell runs twice: with fan-outs inline on the calling client thread
// (`num_query_threads = 0`), and with the store's auto-sized fan-out pool
// (`kAutoQueryThreads`: min(shards - 1, cores - 1) helpers). The pool
// column shows what the helpers cost or gain when client threads already
// outnumber the cores.
//
// What scales and why: updates to different shards hold different locks
// (true parallelism on multicore, and far fewer contended lock handoffs
// even on one core); fan-out queries read shards under shared locks so
// they overlap with each other and with writers on other shards. Expect
// near-linear update scaling up to min(shards, cores) and a contention
// cliff at S = 1; on a single-core host the gain reduces to the contended
// vs. uncontended locking delta, so run on multicore hardware for the
// headline numbers.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/exp_common.h"
#include "db/sharded_database.h"
#include "geo/route_network.h"
#include "util/rng.h"
#include "util/table.h"

namespace modb::bench {
namespace {

struct WorkloadResult {
  double ops_per_sec = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t queries = 0;
  std::string metrics_dump;
};

constexpr std::size_t kFleetSize = 2048;
constexpr int kOpsPerThread = 6000;
constexpr int kQueryEvery = 10;  // 1 query per 9 updates

db::ShardedModDatabase MakeDatabase(const geo::RouteNetwork& network,
                                    std::size_t shards,
                                    std::size_t query_threads) {
  db::ShardedModDatabaseOptions options;
  options.num_shards = shards;
  options.num_query_threads = query_threads;
  return db::ShardedModDatabase(&network, options);
}

void LoadFleet(const geo::RouteNetwork& network, db::ShardedModDatabase* db) {
  std::vector<db::ShardedModDatabase::BulkObject> batch;
  util::Rng rng(7);
  const auto& routes = network.routes();
  for (core::ObjectId id = 0; id < kFleetSize; ++id) {
    const geo::Route& route = routes[id % routes.size()];
    db::ShardedModDatabase::BulkObject object;
    object.id = id;
    core::PositionAttribute attr;
    attr.route = route.id();
    attr.start_route_distance = rng.Uniform(0.0, route.Length() * 0.9);
    attr.start_position = route.PointAt(attr.start_route_distance);
    attr.speed = rng.Uniform(0.2, 1.2);
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    object.attr = attr;
    batch.push_back(std::move(object));
  }
  if (!db->BulkInsert(std::move(batch)).ok()) {
    std::fprintf(stderr, "fleet load failed\n");
    std::abort();
  }
}

WorkloadResult RunWorkload(const geo::RouteNetwork& network,
                           std::size_t shards, std::size_t threads,
                           std::size_t query_threads) {
  db::ShardedModDatabase db = MakeDatabase(network, shards, query_threads);
  LoadFleet(network, &db);

  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      util::Rng rng(100 + w);
      const auto& routes = network.routes();
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t my_updates = 0;
      std::uint64_t my_queries = 0;
      for (int op = 0; op < kOpsPerThread; ++op) {
        if (op % kQueryEvery == kQueryEvery - 1) {
          const double x0 = rng.Uniform(0.0, 900.0);
          const double y0 = rng.Uniform(0.0, 900.0);
          if (my_queries % 2 == 0) {
            const geo::Polygon region =
                geo::Polygon::Rectangle(x0, y0, x0 + 60.0, y0 + 60.0);
            (void)db.QueryRange(region, 1.0 + op);
          } else {
            (void)db.QueryNearest({x0, y0}, 5, 1.0 + op);
          }
          ++my_queries;
          continue;
        }
        // Each thread updates its own stripe of the fleet so update times
        // stay monotone per object.
        const core::ObjectId id =
            (static_cast<core::ObjectId>(rng.UniformInt(
                 0, static_cast<std::int64_t>(kFleetSize) - 1)) /
             threads) *
                threads +
            w;
        if (id >= kFleetSize) continue;
        const geo::Route& route = routes[id % routes.size()];
        core::PositionUpdate update;
        update.object = id;
        update.time = 1.0 + op;
        update.route = route.id();
        update.route_distance = rng.Uniform(0.0, route.Length() * 0.9);
        update.position = route.PointAt(update.route_distance);
        update.direction = core::TravelDirection::kForward;
        update.speed = rng.Uniform(0.2, 1.2);
        (void)db.ApplyUpdate(update);
        ++my_updates;
      }
      updates.fetch_add(my_updates);
      queries.fetch_add(my_queries);
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();

  WorkloadResult result;
  result.updates = updates.load();
  result.queries = queries.load();
  result.ops_per_sec =
      static_cast<double>(result.updates + result.queries) / seconds;
  result.metrics_dump = db.DumpMetrics();
  return result;
}

}  // namespace
}  // namespace modb::bench

int main() {
  using namespace modb::bench;

  PrintHeader("E13 concurrent throughput",
              "sharding the MOD removes the single-writer bottleneck: "
              "aggregate update+query throughput scales with shards x "
              "threads (ROADMAP north star, not a claim of the 1998 paper)");

  modb::geo::RouteNetwork network;
  network.AddGridNetwork(10, 10, 100.0);  // 1km-ish urban grid

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u (speedups over the 1-shard/1-thread "
              "baseline need cores to materialise)\n\n",
              hw);

  constexpr std::size_t kInline = 0;
  constexpr std::size_t kAutoPool =
      modb::db::ShardedModDatabaseOptions::kAutoQueryThreads;
  modb::util::Table table({"shards", "threads", "updates", "queries",
                           "ops/s", "speedup", "ops/s (auto pool)",
                           "speedup (auto pool)"});
  const double baseline = RunWorkload(network, 1, 1, kInline).ops_per_sec;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      const WorkloadResult r = RunWorkload(network, shards, threads, kInline);
      const WorkloadResult pooled =
          RunWorkload(network, shards, threads, kAutoPool);
      table.NewRow()
          .Add(shards)
          .Add(threads)
          .Add(static_cast<std::size_t>(r.updates))
          .Add(static_cast<std::size_t>(r.queries))
          .Add(r.ops_per_sec, 0)
          .Add(r.ops_per_sec / baseline, 2)
          .Add(pooled.ops_per_sec, 0)
          .Add(pooled.ops_per_sec / baseline, 2);
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("\nmetrics endpoint sample (8 shards / 8 threads):\n");
  const WorkloadResult sample = RunWorkload(network, 8, 8, kInline);
  std::printf("%s\n", sample.metrics_dump.c_str());
  return 0;
}
