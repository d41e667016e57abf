// E8a — google-benchmark microbenchmarks of the geometry substrate: the
// route-distance operations every policy tick and query classification
// depends on.

#include <benchmark/benchmark.h>

#include "core/refiner.h"
#include "geo/polygon.h"
#include "geo/polyline.h"
#include "geo/route_network.h"
#include "util/rng.h"

namespace modb::geo {
namespace {

Polyline MakeWinding(std::size_t segments) {
  util::Rng rng(5);
  RouteNetwork net;
  const RouteId id =
      net.AddRandomWindingRoute(rng, {0.0, 0.0}, segments, 2.0, 0.5);
  return net.route(id).shape();
}

void BM_PointAtDistance(benchmark::State& state) {
  const Polyline line = MakeWinding(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  double s = 0.0;
  for (auto _ : state) {
    s += line.Length() * 0.37;
    if (s > line.Length()) s -= line.Length();
    benchmark::DoNotOptimize(line.PointAtDistance(s));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointAtDistance)->Arg(16)->Arg(256)->Arg(4096);

void BM_ProjectPoint(benchmark::State& state) {
  const Polyline line = MakeWinding(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(2);
  const Box2 box = line.BoundingBox();
  std::vector<Point2> probes;
  for (int i = 0; i < 64; ++i) {
    probes.push_back({rng.Uniform(box.min.x, box.max.x),
                      rng.Uniform(box.min.y, box.max.y)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(line.ProjectPoint(probes[i++ % probes.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProjectPoint)->Arg(16)->Arg(256)->Arg(4096);

void BM_SubPolylineBBox(benchmark::State& state) {
  const Polyline line = MakeWinding(1024);
  double s = 0.0;
  for (auto _ : state) {
    s += 13.7;
    if (s + 40.0 > line.Length()) s = 0.0;
    benchmark::DoNotOptimize(line.BoundingBoxBetween(s, s + 40.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubPolylineBBox);

void BM_PolygonContains(benchmark::State& state) {
  const Polygon poly = Polygon::RegularNGon(
      {0.0, 0.0}, 10.0, static_cast<std::size_t>(state.range(0)));
  util::Rng rng(3);
  std::vector<Point2> probes;
  for (int i = 0; i < 64; ++i) {
    probes.push_back({rng.Uniform(-12.0, 12.0), rng.Uniform(-12.0, 12.0)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly.Contains(probes[i++ % probes.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolygonContains)->Arg(4)->Arg(32)->Arg(256);

void BM_SubInsidePolygon(benchmark::State& state) {
  const Polyline line = MakeWinding(256);
  Box2 box = line.BoundingBox();
  box.Inflate(1.0);
  const Polygon poly =
      Polygon::Rectangle(box.min.x, box.min.y, box.max.x, box.max.y);
  core::Refiner refiner;
  double s = 0.0;
  for (auto _ : state) {
    s += 7.3;
    if (s + 30.0 > line.Length()) s = 0.0;
    benchmark::DoNotOptimize(refiner.Inside(poly, line, {s, s + 30.0}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubInsidePolygon);

}  // namespace
}  // namespace modb::geo

BENCHMARK_MAIN();
