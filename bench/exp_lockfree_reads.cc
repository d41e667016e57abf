// E20 — epoch-based lock-free index reads under a concurrent writer: the
// same R*-tree workload (8 query threads + 1 continuous update thread) run
// against three configurations of the in-place tree + external lock
// baseline and the resident copy-on-write tree.
//
// The baseline has an inherent tradeoff this experiment makes explicit. A
// reader-preferring shared_mutex (glibc's std::shared_mutex) keeps query
// threads fast, but under a continuous query load the update thread
// starves — single-digit update cycles per second, which for a MOD is
// fatal: position updates are the lifeblood of the model (the paper's
// whole subject is when to send them). A writer-preferring rwlock keeps
// updates flowing at full rate, but then every update blocks all eight
// query threads and read throughput collapses. The epoch scheme removes
// the tradeoff: readers traverse an immutable epoch-protected snapshot
// and take no lock at all, so both sides run at full speed.
//
// The speed gate is therefore measured against the baseline that a real
// deployment would have to pick — the writer-preferring lock, the only
// locked configuration that sustains the update stream — and the claim is
// >= 1.5x aggregate query throughput at byte-identical answers. The
// reader-preferring row is reported alongside for the full story.
// Identity is checked both at the tree level (resident vs legacy
// differential) and at the sharded database level (lock-free probes vs a
// twin whose in-place trees force the locked path).
//
// `--smoke` shrinks the fleet and the measured window for CI;
// `--no-speed-gate` (sanitizer builds) gates on identity only.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "bench/exp_common.h"
#include "db/mod_database.h"
#include "db/sharded_database.h"
#include "geo/route_network.h"
#include "index/rtree3.h"
#include "util/rng.h"
#include "util/table.h"

namespace modb::bench {
namespace {

using Clock = std::chrono::steady_clock;
using geo::Box3;
using index::RTree3;

constexpr std::size_t kReaders = 8;
constexpr std::size_t kBoxesPerObject = 15;
constexpr std::size_t kObjectsPerCycle = 4;
// A bounded memory pool selects the in-place tree regime; this budget is
// far larger than any tree here, so nothing is ever evicted.
constexpr std::size_t kInPlacePoolPages = std::size_t{1} << 16;

Box3 RandomBox(util::Rng& rng, double space, double extent) {
  const double x = rng.Uniform(0.0, space);
  const double y = rng.Uniform(0.0, space);
  const double t = rng.Uniform(0.0, space);
  return Box3(x, y, t, x + extent, y + extent, t + extent);
}

// ---- Part 1: tree-level reader throughput, locked vs lock-free ----

// The locked configuration a deployment would actually have to run: a
// rwlock that admits no new readers while a writer is waiting, so the
// update stream cannot starve behind a continuous query load.
class WriterPreferringLock {
 public:
  void lock_shared() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return writers_waiting_ == 0 && !writer_active_; });
    ++readers_;
  }
  void unlock_shared() {
    std::unique_lock lock(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }
  void lock() {
    std::unique_lock lock(mu_);
    ++writers_waiting_;
    cv_.wait(lock, [&] { return readers_ == 0 && !writer_active_; });
    --writers_waiting_;
    writer_active_ = true;
  }
  void unlock() {
    std::unique_lock lock(mu_);
    writer_active_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_active_ = false;
};

enum class ReadMode {
  kSharedMutex,  // reader-preferring std::shared_mutex: writer starves
  kFairLock,     // writer-preferring rwlock: updates flow, readers stall
  kLockFree,     // epoch-protected snapshot reads, no lock
};

struct TreeThroughput {
  double reads_per_sec = 0.0;
  double write_cycles_per_sec = 0.0;
};

TreeThroughput MeasureTree(ReadMode mode, std::size_t objects,
                           double seconds) {
  const bool lock_free = mode == ReadMode::kLockFree;
  RTree3::Options options;
  if (!lock_free) options.storage.pool_pages = kInPlacePoolPages;
  RTree3 tree(options);

  util::Rng rng(404);
  std::vector<std::vector<Box3>> boxes(objects);
  std::vector<std::pair<Box3, RTree3::Value>> load;
  load.reserve(objects * kBoxesPerObject);
  for (std::size_t i = 0; i < objects; ++i) {
    for (std::size_t b = 0; b < kBoxesPerObject; ++b) {
      boxes[i].push_back(RandomBox(rng, 500.0, 4.0));
      load.emplace_back(boxes[i][b], i);
    }
  }
  tree.BulkLoad(std::move(load));

  // The historical read contract needs a lock around every access; the
  // resident tree's readers go straight in.
  std::shared_mutex shared_mu;
  WriterPreferringLock fair_mu;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> cycles{0};

  std::thread writer([&] {
    // The §4.2 position-update cycle, batched the way ApplyUpdateBatch
    // delivers it: for each of a handful of objects, drop its o-plane
    // boxes and insert the new ones — one atomic unit per cycle
    // (exclusive lock in locked modes, a write batch in lock-free mode).
    util::Rng wrng(405);
    std::size_t next = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<std::size_t> ids;
      std::vector<std::vector<Box3>> fresh(kObjectsPerCycle);
      for (std::size_t o = 0; o < kObjectsPerCycle; ++o) {
        ids.push_back(next++ % objects);
        for (std::size_t b = 0; b < kBoxesPerObject; ++b) {
          fresh[o].push_back(RandomBox(wrng, 500.0, 4.0));
        }
      }
      const auto apply = [&] {
        for (std::size_t o = 0; o < kObjectsPerCycle; ++o) {
          const std::size_t id = ids[o];
          for (const Box3& b : boxes[id]) (void)tree.Remove(b, id);
          for (const Box3& b : fresh[o]) tree.Insert(b, id);
        }
      };
      if (mode == ReadMode::kLockFree) {
        RTree3::BatchScope batch(tree);
        apply();
      } else if (mode == ReadMode::kFairLock) {
        std::unique_lock lock(fair_mu);
        apply();
      } else {
        std::unique_lock lock(shared_mu);
        apply();
      }
      for (std::size_t o = 0; o < kObjectsPerCycle; ++o) {
        boxes[ids[o]] = std::move(fresh[o]);
      }
      cycles.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rrng(500 + r);
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // A range query's shape: a thin time slice over a spatial window.
        const double t = rrng.Uniform(0.0, 500.0);
        const double x = rrng.Uniform(0.0, 450.0);
        const double y = rrng.Uniform(0.0, 450.0);
        const Box3 slice(x, y, t, x + 50.0, y + 50.0, t);
        std::size_t hits = 0;
        const auto count = [&hits](const Box3&, RTree3::Value) { ++hits; };
        if (mode == ReadMode::kLockFree) {
          tree.Search(slice, count);
        } else if (mode == ReadMode::kFairLock) {
          std::shared_lock lock(fair_mu);
          tree.Search(slice, count);
        } else {
          std::shared_lock lock(shared_mu);
          tree.Search(slice, count);
        }
        local += 1 + (hits == static_cast<std::size_t>(-1));  // keep `hits`
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& th : readers) th.join();

  TreeThroughput out;
  out.reads_per_sec = static_cast<double>(reads.load()) / seconds;
  out.write_cycles_per_sec =
      static_cast<double>(cycles.load() * kObjectsPerCycle) / seconds;
  return out;
}

// ---- Part 2: identity, tree level and sharded-database level ----

bool TreesAnswerIdentically(std::size_t objects) {
  RTree3 resident;
  RTree3::Options legacy_options;
  legacy_options.storage.pool_pages = kInPlacePoolPages;
  RTree3 legacy(legacy_options);

  util::Rng rng(406);
  std::vector<std::vector<Box3>> boxes(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    for (std::size_t b = 0; b < kBoxesPerObject; ++b) {
      const Box3 box = RandomBox(rng, 500.0, 4.0);
      boxes[i].push_back(box);
      resident.Insert(box, i);
      legacy.Insert(box, i);
    }
  }
  // A round of update cycles so both trees have been through the
  // remove+reinsert path, then a query sweep.
  for (std::size_t i = 0; i < objects; i += 3) {
    for (const Box3& b : boxes[i]) {
      if (!resident.Remove(b, i)) return false;
      if (!legacy.Remove(b, i)) return false;
    }
    boxes[i].clear();
    for (std::size_t b = 0; b < kBoxesPerObject; ++b) {
      boxes[i].push_back(RandomBox(rng, 500.0, 4.0));
      resident.Insert(boxes[i][b], i);
      legacy.Insert(boxes[i][b], i);
    }
  }
  for (int q = 0; q < 64; ++q) {
    const Box3 query = RandomBox(rng, 460.0, 40.0);
    std::vector<RTree3::Value> a = resident.SearchValues(query);
    std::vector<RTree3::Value> b = legacy.SearchValues(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  return true;
}

struct Fleet {
  geo::RouteNetwork network;
  std::vector<core::PositionAttribute> attrs;
  std::vector<core::PositionUpdate> updates;
  std::vector<geo::Polygon> queries;
};

std::unique_ptr<Fleet> MakeFleet(std::size_t num_objects,
                                 std::size_t num_queries) {
  auto f = std::make_unique<Fleet>();
  f->network.AddGridNetwork(20, 20, 30.0);
  util::Rng rng(407);
  for (std::size_t i = 0; i < num_objects; ++i) {
    core::PositionAttribute attr;
    attr.route = static_cast<geo::RouteId>(
        rng.UniformInt(0, static_cast<std::int64_t>(f->network.size()) - 1));
    const double len = f->network.route(attr.route).Length();
    attr.start_route_distance = rng.Uniform(0.0, len * 0.5);
    attr.start_position =
        f->network.route(attr.route).PointAt(attr.start_route_distance);
    attr.speed = rng.Uniform(0.5, 5.0);
    attr.update_cost = 5.0;
    attr.max_speed = 25.0;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    f->attrs.push_back(attr);
  }
  for (std::size_t i = 0; i < num_objects; ++i) {
    const core::PositionAttribute& attr = f->attrs[i];
    core::PositionUpdate u;
    u.object = static_cast<core::ObjectId>(i);
    u.time = 10.0;
    u.route = attr.route;
    const double len = f->network.route(attr.route).Length();
    u.route_distance =
        std::min(len, attr.start_route_distance + attr.speed * 10.0);
    u.position = f->network.route(u.route).PointAt(u.route_distance);
    u.direction = core::TravelDirection::kForward;
    u.speed = rng.Uniform(0.5, 5.0);
    f->updates.push_back(u);
  }
  for (std::size_t q = 0; q < num_queries; ++q) {
    f->queries.push_back(geo::Polygon::CenteredRectangle(
        {rng.Uniform(50.0, 520.0), rng.Uniform(50.0, 520.0)}, 40.0, 40.0));
  }
  return f;
}

std::unique_ptr<db::ShardedModDatabase> BuildSharded(const Fleet& f,
                                                     bool lock_free) {
  db::ShardedModDatabaseOptions options;
  options.num_shards = 4;
  options.num_query_threads = 0;
  // The in-place trees do not allow lock-free probes, so every query of
  // the locked twin runs under the shard lock.
  if (!lock_free) options.db.index_storage.pool_pages = kInPlacePoolPages;
  auto database =
      std::make_unique<db::ShardedModDatabase>(&f.network, options);
  std::vector<db::ModDatabase::BulkObject> fleet;
  for (std::size_t i = 0; i < f.attrs.size(); ++i) {
    db::ModDatabase::BulkObject o;
    o.id = static_cast<core::ObjectId>(i);
    o.attr = f.attrs[i];
    fleet.push_back(std::move(o));
  }
  if (!database->BulkInsert(std::move(fleet)).ok()) return nullptr;
  for (const auto& u : f.updates) (void)database->ApplyUpdate(u);
  return database;
}

bool SameNearest(const db::NearestAnswer& a, const db::NearestAnswer& b) {
  if (a.items.size() != b.items.size()) return false;
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].id != b.items[i].id ||
        a.items[i].db_distance != b.items[i].db_distance) {
      return false;
    }
  }
  return true;
}

bool ShardedAnswersIdentically(const Fleet& f) {
  auto lock_free = BuildSharded(f, true);
  auto locked = BuildSharded(f, false);
  if (lock_free == nullptr || locked == nullptr) return false;
  for (const geo::Polygon& region : f.queries) {
    const db::RangeAnswer a = lock_free->QueryRange(region, 15.0);
    const db::RangeAnswer b = locked->QueryRange(region, 15.0);
    if (a.must != b.must || a.may != b.may ||
        a.may_probability != b.may_probability) {
      return false;
    }
    const db::IntervalRangeAnswer ia =
        lock_free->QueryRangeInterval(region, 12.0, 18.0, 1.0);
    const db::IntervalRangeAnswer ib =
        locked->QueryRangeInterval(region, 12.0, 18.0, 1.0);
    if (ia.may != ib.may || ia.must_at_some_time != ib.must_at_some_time) {
      return false;
    }
    const geo::Point2 center = region.vertices()[0];
    if (!SameNearest(lock_free->QueryNearest(center, 5, 15.0),
                     locked->QueryNearest(center, 5, 15.0))) {
      return false;
    }
  }
  return true;
}

int Run(bool smoke, bool speed_gate) {
  PrintHeader(
      "E20: epoch-based lock-free index reads",
      "readers of the resident copy-on-write R*-tree take no lock and "
      "sustain >= 1.5x the aggregate query throughput of the locked "
      "configuration that keeps updates flowing (a writer-preferring "
      "rwlock) under a concurrent writer, at byte-identical answers; the "
      "reader-preferring shared_mutex baseline only reads fast by "
      "starving the update stream");

  const std::size_t kObjects = smoke ? 800 : 2000;
  const double kSeconds = smoke ? 0.3 : 1.0;

  const TreeThroughput shared =
      MeasureTree(ReadMode::kSharedMutex, kObjects, kSeconds);
  const TreeThroughput fair =
      MeasureTree(ReadMode::kFairLock, kObjects, kSeconds);
  const TreeThroughput lock_free =
      MeasureTree(ReadMode::kLockFree, kObjects, kSeconds);
  const double speedup = fair.reads_per_sec > 0.0
                             ? lock_free.reads_per_sec / fair.reads_per_sec
                             : 0.0;

  util::Table table({"config", "readers", "queries/s", "object updates/s",
                     "speedup vs fair lock"});
  table.NewRow()
      .Add("shared_mutex (writer starves)")
      .Add(kReaders)
      .Add(shared.reads_per_sec, 0)
      .Add(shared.write_cycles_per_sec, 0)
      .Add(fair.reads_per_sec > 0.0
               ? shared.reads_per_sec / fair.reads_per_sec
               : 0.0,
           2);
  table.NewRow()
      .Add("writer-preferring rwlock")
      .Add(kReaders)
      .Add(fair.reads_per_sec, 0)
      .Add(fair.write_cycles_per_sec, 0)
      .Add(1.0, 2);
  table.NewRow()
      .Add("epoch lock-free readers")
      .Add(kReaders)
      .Add(lock_free.reads_per_sec, 0)
      .Add(lock_free.write_cycles_per_sec, 0)
      .Add(speedup, 2);
  std::printf("%s\n", table.ToString().c_str());

  const bool tree_identical = TreesAnswerIdentically(smoke ? 120 : 400);
  const auto fleet = MakeFleet(smoke ? 300 : 2000, smoke ? 12 : 48);
  const bool sharded_identical = ShardedAnswersIdentically(*fleet);

  const bool identical = tree_identical && sharded_identical;
  const bool pass = identical && (speed_gate ? speedup >= 1.5 : true);
  std::printf(
      "shape check — lock-free readers at %.2fx the writer-preferring "
      "locked throughput (claim: >= 1.5x%s), with the update stream at "
      "full rate (shared_mutex baseline starved it to %.0f updates/s); "
      "resident tree answers == legacy tree answers: %s; sharded "
      "lock-free probes == locked probes: %s -> %s\n\n",
      speedup, speed_gate ? "" : "; speed gate off, identity only",
      shared.write_cycles_per_sec, tree_identical ? "yes" : "NO",
      sharded_identical ? "yes" : "NO", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace modb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  bool speed_gate = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    // Sanitizer-instrumented CI runs: timings are distorted, so gate only
    // on answer identity there.
    if (std::strcmp(argv[i], "--no-speed-gate") == 0) speed_gate = false;
  }
  return modb::bench::Run(smoke, speed_gate);
}
