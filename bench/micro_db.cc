// E8c — google-benchmark microbenchmarks of the database layer: object
// registration (incremental vs bulk), the position-update path, and the
// position, range, interval and nearest queries.

#include <benchmark/benchmark.h>

#include <memory>

#include "db/mod_database.h"
#include "util/rng.h"

namespace modb::db {
namespace {

struct Fixture {
  geo::RouteNetwork network;
  std::vector<core::PositionAttribute> attrs;

  explicit Fixture(std::size_t n, std::uint64_t seed = 1) {
    network.AddGridNetwork(10, 10, 60.0);
    util::Rng rng(seed);
    attrs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      core::PositionAttribute attr;
      attr.route = static_cast<geo::RouteId>(
          rng.UniformInt(0, static_cast<std::int64_t>(network.size()) - 1));
      attr.start_route_distance =
          rng.Uniform(0.0, network.route(attr.route).Length() * 0.5);
      attr.start_position =
          network.route(attr.route).PointAt(attr.start_route_distance);
      attr.speed = rng.Uniform(0.2, 1.2);
      attr.update_cost = 5.0;
      attr.max_speed = 1.5;
      attr.policy = core::PolicyKind::kAverageImmediateLinear;
      attrs.push_back(attr);
    }
  }
};

void BM_DbInsert(benchmark::State& state) {
  const Fixture fx(10000);
  std::size_t i = 0;
  std::unique_ptr<ModDatabase> db;
  for (auto _ : state) {
    if (i % fx.attrs.size() == 0) {
      state.PauseTiming();
      db = std::make_unique<ModDatabase>(&fx.network);
      state.ResumeTiming();
    }
    const std::size_t idx = i++ % fx.attrs.size();
    benchmark::DoNotOptimize(db->Insert(idx, "", fx.attrs[idx]).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbInsert);

void BM_DbBulkInsert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Fixture fx(n);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ModDatabase::BulkObject> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) batch.push_back({i, "", fx.attrs[i]});
    ModDatabase db(&fx.network);
    state.ResumeTiming();
    benchmark::DoNotOptimize(db.BulkInsert(std::move(batch)).ok());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DbBulkInsert)->Arg(1000)->Arg(10000);

void BM_DbApplyUpdate(benchmark::State& state) {
  const Fixture fx(5000);
  ModDatabase db(&fx.network);
  for (std::size_t i = 0; i < fx.attrs.size(); ++i) {
    db.Insert(i, "", fx.attrs[i]).ok();
  }
  util::Rng rng(3);
  double t = 1.0;
  for (auto _ : state) {
    const auto id = static_cast<core::ObjectId>(
        rng.UniformInt(0, static_cast<std::int64_t>(fx.attrs.size()) - 1));
    const core::PositionAttribute& base = fx.attrs[id];
    core::PositionUpdate update;
    update.object = id;
    update.time = t;
    update.route = base.route;
    update.route_distance = base.start_route_distance;
    update.position = base.start_position;
    update.direction = base.direction;
    update.speed = rng.Uniform(0.2, 1.2);
    benchmark::DoNotOptimize(db.ApplyUpdate(update).ok());
    t += 1e-4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbApplyUpdate);

void BM_DbQueryPosition(benchmark::State& state) {
  const Fixture fx(5000);
  ModDatabase db(&fx.network);
  for (std::size_t i = 0; i < fx.attrs.size(); ++i) {
    db.Insert(i, "", fx.attrs[i]).ok();
  }
  util::Rng rng(4);
  for (auto _ : state) {
    const auto id = static_cast<core::ObjectId>(
        rng.UniformInt(0, static_cast<std::int64_t>(fx.attrs.size()) - 1));
    benchmark::DoNotOptimize(db.QueryPosition(id, rng.Uniform(0.0, 60.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbQueryPosition);

void BM_DbQueryRange(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Fixture fx(n);
  ModDatabase db(&fx.network);
  for (std::size_t i = 0; i < n; ++i) db.Insert(i, "", fx.attrs[i]).ok();
  util::Rng rng(5);
  std::size_t results = 0;
  for (auto _ : state) {
    const geo::Polygon region = geo::Polygon::CenteredRectangle(
        {rng.Uniform(50.0, 500.0), rng.Uniform(50.0, 500.0)}, 25.0, 25.0);
    const RangeAnswer answer = db.QueryRange(region, rng.Uniform(0.0, 40.0));
    results += answer.must.size() + answer.may.size();
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbQueryRange)->Arg(1000)->Arg(10000);

void BM_DbQueryRangeInterval(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Fixture fx(n);
  ModDatabase db(&fx.network);
  for (std::size_t i = 0; i < n; ++i) db.Insert(i, "", fx.attrs[i]).ok();
  util::Rng rng(7);
  std::size_t results = 0;
  for (auto _ : state) {
    const geo::Polygon region = geo::Polygon::CenteredRectangle(
        {rng.Uniform(50.0, 500.0), rng.Uniform(50.0, 500.0)}, 25.0, 25.0);
    const double t = rng.Uniform(0.0, 40.0);
    const IntervalRangeAnswer answer =
        db.QueryRangeInterval(region, t, t + 10.0);
    results += answer.may.size() + answer.must_at_some_time.size();
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbQueryRangeInterval)->Arg(1000)->Arg(10000);

void BM_DbQueryNearest(benchmark::State& state) {
  const Fixture fx(10000);
  ModDatabase db(&fx.network);
  for (std::size_t i = 0; i < fx.attrs.size(); ++i) {
    db.Insert(i, "", fx.attrs[i]).ok();
  }
  util::Rng rng(6);
  for (auto _ : state) {
    const geo::Point2 p{rng.Uniform(0.0, 540.0), rng.Uniform(0.0, 540.0)};
    benchmark::DoNotOptimize(db.QueryNearest(p, 5, rng.Uniform(0.0, 40.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbQueryNearest);

}  // namespace
}  // namespace modb::db

BENCHMARK_MAIN();
