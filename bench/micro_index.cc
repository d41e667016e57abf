// E8b — google-benchmark microbenchmarks of the 3-D R*-tree: insert,
// update (remove + insert, the position-update path of §4.2), and
// time-slice search throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "index/rtree3.h"
#include "index/soa_kernel.h"
#include "util/rng.h"

namespace modb::index {
namespace {

using geo::Box3;

Box3 RandomBox(util::Rng& rng, double space, double extent) {
  const double x = rng.Uniform(0.0, space);
  const double y = rng.Uniform(0.0, space);
  const double t = rng.Uniform(0.0, space);
  return Box3(x, y, t, x + extent, y + extent, t + extent);
}

void BM_RTreeInsert(benchmark::State& state) {
  util::Rng rng(1);
  const auto prefill = static_cast<std::size_t>(state.range(0));
  RTree3 tree;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < prefill; ++i) {
    tree.Insert(RandomBox(rng, 500.0, 5.0), value++);
  }
  for (auto _ : state) {
    tree.Insert(RandomBox(rng, 500.0, 5.0), value++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RTreeSearch(benchmark::State& state) {
  util::Rng rng(2);
  const auto size = static_cast<std::size_t>(state.range(0));
  RTree3 tree;
  for (std::size_t i = 0; i < size; ++i) {
    tree.Insert(RandomBox(rng, 500.0, 5.0), i);
  }
  std::size_t results = 0;
  for (auto _ : state) {
    const Box3 query = RandomBox(rng, 480.0, 20.0);
    tree.Search(query, [&results](const Box3&, std::uint64_t) { ++results; });
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeSearch)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RTreeTimeSliceSearch(benchmark::State& state) {
  // The shape of a range query: a zero-thickness time slice.
  util::Rng rng(3);
  RTree3 tree;
  for (std::size_t i = 0; i < 50000; ++i) {
    tree.Insert(RandomBox(rng, 500.0, 5.0), i);
  }
  std::size_t results = 0;
  for (auto _ : state) {
    const double t = rng.Uniform(0.0, 500.0);
    const Box3 slice(rng.Uniform(0.0, 460.0), rng.Uniform(0.0, 460.0), t,
                     rng.Uniform(460.0, 500.0), rng.Uniform(460.0, 500.0), t);
    tree.Search(slice, [&results](const Box3&, std::uint64_t) { ++results; });
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeTimeSliceSearch);

void BM_RTreeUpdateCycle(benchmark::State& state) {
  // The §4.2 position-update path: remove the old o-plane boxes, insert the
  // new ones (here 15 boxes per object, matching a 60-unit horizon with
  // 4-unit slabs).
  util::Rng rng(4);
  constexpr std::size_t kObjects = 2000;
  constexpr std::size_t kBoxesPerObject = 15;
  RTree3 tree;
  std::vector<std::vector<Box3>> boxes(kObjects);
  for (std::size_t i = 0; i < kObjects; ++i) {
    for (std::size_t b = 0; b < kBoxesPerObject; ++b) {
      boxes[i].push_back(RandomBox(rng, 500.0, 4.0));
      tree.Insert(boxes[i][b], i);
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const std::size_t id = next++ % kObjects;
    for (const Box3& b : boxes[id]) tree.Remove(b, id);
    boxes[id].clear();
    for (std::size_t b = 0; b < kBoxesPerObject; ++b) {
      boxes[id].push_back(RandomBox(rng, 500.0, 4.0));
      tree.Insert(boxes[id][b], id);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeUpdateCycle);

// An o-plane-like cover: `n` consecutive 4-unit time slabs along a straight
// path, the shape TimeSpaceIndex stores per object.
std::vector<Box3> ObjectCover(util::Rng& rng, std::size_t n) {
  const double x0 = rng.Uniform(0.0, 500.0);
  const double y0 = rng.Uniform(0.0, 500.0);
  const double vx = rng.Uniform(-2.0, 2.0);
  const double vy = rng.Uniform(-2.0, 2.0);
  std::vector<Box3> cover;
  for (std::size_t k = 0; k < n; ++k) {
    const double t = 4.0 * static_cast<double>(k);
    const double x = x0 + vx * t;
    const double y = y0 + vy * t;
    cover.emplace_back(std::min(x, x + 4.0 * vx) - 1.0,
                       std::min(y, y + 4.0 * vy) - 1.0, t,
                       std::max(x, x + 4.0 * vx) + 1.0,
                       std::max(y, y + 4.0 * vy) + 1.0, t + 4.0);
  }
  return cover;
}

void BM_RTreeObjectUpdate(benchmark::State& state) {
  // The same update as BM_RTreeUpdateCycle on o-plane-shaped covers: the
  // object's 15 boxes leave in one RemoveBatch descent, then a new cover
  // is inserted.
  util::Rng rng(6);
  constexpr std::size_t kObjects = 2000;
  constexpr std::size_t kBoxesPerObject = 15;
  RTree3 tree;
  std::vector<std::vector<Box3>> cover(kObjects);
  for (std::size_t i = 0; i < kObjects; ++i) {
    cover[i] = ObjectCover(rng, kBoxesPerObject);
    for (const Box3& b : cover[i]) tree.Insert(b, i);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const std::size_t id = next++ % kObjects;
    benchmark::DoNotOptimize(tree.RemoveBatch(cover[id], id));
    cover[id] = ObjectCover(rng, kBoxesPerObject);
    for (const Box3& b : cover[id]) tree.Insert(b, id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeObjectUpdate);

// Intersection-kernel workload: a pool of random boxes in both layouts and
// a ring of kKernelCases cases, each a query plus a window of `n` pooled
// boxes. Every iteration takes the next case, so a branchy scan cannot
// learn one fixed outcome sequence; in the tree, too, every node visit sees
// new boxes. A query covers about half of each axis (~1/8 of the boxes).
constexpr std::size_t kKernelCases = 1024;

struct KernelFixture {
  std::vector<double> min_x, min_y, min_t, max_x, max_y, max_t;
  std::vector<Box3> aos;  // same boxes, array-of-structs, for the baseline
  std::vector<Box3> queries;         // one per case
  std::vector<std::size_t> offsets;  // first pooled box of each case

  explicit KernelFixture(std::size_t n) {
    util::Rng rng(5);
    const std::size_t pool = n + kKernelCases;
    for (std::size_t i = 0; i < pool; ++i) {
      const Box3 b = RandomBox(rng, 500.0, 5.0);
      min_x.push_back(b.min[0]);
      min_y.push_back(b.min[1]);
      min_t.push_back(b.min[2]);
      max_x.push_back(b.max[0]);
      max_y.push_back(b.max[1]);
      max_t.push_back(b.max[2]);
      aos.push_back(b);
    }
    for (std::size_t c = 0; c < kKernelCases; ++c) {
      queries.push_back(RandomBox(rng, 250.0, 250.0));
      offsets.push_back(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(pool - n))));
    }
  }
};

void BM_SoAIntersectKernel(benchmark::State& state) {
  // The packed node-scan kernel `Search` runs per visited node: one
  // batched compare pass + compacting hit-index store. Arg is the batch
  // width — 16 is one node's worth (Options::max_entries default).
  const auto n = static_cast<std::size_t>(state.range(0));
  const KernelFixture f(n);
  std::vector<std::uint32_t> hits(n);
  std::size_t c = 0;
  for (auto _ : state) {
    const std::size_t o = f.offsets[c];
    const std::size_t count = soa::IntersectBoxes(
        f.min_x.data() + o, f.min_y.data() + o, f.min_t.data() + o,
        f.max_x.data() + o, f.max_y.data() + o, f.max_t.data() + o, n,
        f.queries[c], hits.data());
    benchmark::DoNotOptimize(count);
    benchmark::DoNotOptimize(hits.data());
    c = (c + 1) % kKernelCases;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SoAIntersectKernel)->Arg(16)->Arg(256)->Arg(4096);

void BM_ScalarIntersectBaseline(benchmark::State& state) {
  // The legacy per-entry path: Box3::Intersects on array-of-structs
  // entries with a branchy push. Same cases as BM_SoAIntersectKernel.
  const auto n = static_cast<std::size_t>(state.range(0));
  const KernelFixture f(n);
  std::vector<std::uint32_t> hits(n);
  std::size_t c = 0;
  for (auto _ : state) {
    const Box3* boxes = f.aos.data() + f.offsets[c];
    const Box3& query = f.queries[c];
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (boxes[i].Intersects(query)) {
        hits[count++] = static_cast<std::uint32_t>(i);
      }
    }
    benchmark::DoNotOptimize(count);
    benchmark::DoNotOptimize(hits.data());
    c = (c + 1) % kKernelCases;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScalarIntersectBaseline)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace modb::index

BENCHMARK_MAIN();
