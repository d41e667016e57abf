// modb_perfbench: closed-loop benchmark of the sharded moving-objects store.
//
// One client thread replays a seeded fleet trace (the sim onboard policies
// dl / ail / cil with C = 5, V = 1.5 and one-hour trips, paper §3.4) into a
// default db::ShardedModDatabase: uplink batches go through ApplyUpdateBatch
// and each batch is followed by the workload's queries. WORKLOADS.md records
// why each workload exists and which layers it loads or bypasses.
//
//   modb_perfbench --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> --work <dir>
//
// Each workload replays one fixed segment of its trace again and again,
// every repetition from an identical set-up, for --seconds of replay time.
// --trace 0 prints the end-to-end metrics. --trace 1 spends half the time
// on untraced repetitions and then traces one more (the difference is the
// tracing overhead), replays single layers standalone, prints the
// per-layer metrics and writes the spans to
// <work>/spans-<workload>-<seed>.csv.
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 1 when any operation or correctness
// check failed.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/uncertainty.h"
#include "core/update_policy.h"
#include "db/mod_database.h"
#include "db/sharded_database.h"
#include "db/wal.h"
#include "geo/route_network.h"
#include "index/timespace_index.h"
#include "sim/speed_curve.h"
#include "sim/trip.h"
#include "sim/vehicle.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace modb::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// ------------------------------------------------------------------ stats

/// Exact q-quantile of raw samples (linear interpolation between the two
/// closest ranks; 0 for an empty set).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Live heap bytes: in-use chunks of every arena plus mmapped blocks.
double LiveHeapBytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

double CpuSeconds() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
}

// -------------------------------------------------------------- workloads

enum class FleetShape { kMixed, kConvoy };

struct Workload {
  const char* name;
  FleetShape shape;
  std::size_t grid;     // streets per direction
  double spacing;       // distance between parallel streets
  std::size_t vehicles;  // mixed: fleet size; convoy: singletons
  std::size_t convoys;
  std::size_t per_convoy;
  std::size_t batch;              // uplink batch size
  std::size_t queries_per_batch;  // closed loop: queries after each batch
  bool dispatch_mix;  // block + district regions, k in {1, 8}, 5-15 windows
  bool durable;
  // Trace positions (ticks; the policies first fire at tick 4). A set-up
  // bulk-loads every vehicle's model as of `bulk_tick`. The durable image
  // adds ticks up to `start_tick`, checkpointed after `checkpoint_tick`,
  // the rest as WAL tail. The measured segment is ticks
  // (start_tick, end_tick], replayed from identical state in every
  // repetition, so the work measured does not depend on how fast the
  // store is.
  int bulk_tick;
  int checkpoint_tick;
  int start_tick;
  int end_tick;
  int timed_setups;  // setup_s is their median
  // The traced run's standalone index replay covers this many batches from
  // the segment's start (all of them when the segment is shorter): a fixed
  // prefix, so its counts do not depend on how fast the run is.
  std::size_t replay_batches;
};

constexpr Workload kWorkloads[] = {
    {"city_ingest", FleetShape::kMixed, 40, 10.0, 20000, 0, 0, 64, 1, false,
     false, 20, 20, 20, 32, 19, 96},
    {"dispatch_reads", FleetShape::kMixed, 40, 10.0, 20000, 0, 0, 16, 24,
     true, false, 20, 20, 20, 23, 19, 320},
    {"durable_convoy", FleetShape::kConvoy, 24, 10.0, 3000, 600, 10, 64, 3,
     false, true, 10, 13, 16, 26, 11, 96},
};

// durable_convoy store settings (stated in BENCHMARK.json's workload line).
constexpr std::uint64_t kWalSyncBytes = 16 * 1024;  // group commit by bytes
constexpr std::uint64_t kCheckpointEvery = 4000;    // applied updates
// Buffer-pool frames per shard: room for a shard's whole index (~3 300
// pages at the segment's end), so pages reach the disk at checkpoints and
// restarts, not on the update clock. With a smaller pool, evictions write
// dirty pages back, the page file syncs after every 64 of them, and update
// times follow the shared disk's fsync latency (WORKLOADS.md).
constexpr std::size_t kPoolPagesPerShard = 4096;
constexpr std::size_t kSubscriptions = 1000;

constexpr double kWarmupSeconds = 1.5;
constexpr std::size_t kQueryRing = 4096;
constexpr std::size_t kReferenceSamples = 64;  // per query kind
constexpr std::size_t kPositionSamples = 256;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ------------------------------------------------------------------ trace

struct Fleet {
  geo::RouteNetwork network;
  double extent = 0.0;
  std::vector<std::unique_ptr<sim::VehicleBase>> vehicles;  // id == index
  std::vector<core::PositionAttribute> bulk;  // models at bulk_tick, by id
};

struct Batch {
  core::Time t = 0.0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Uplink batches of the ticks after bulk_tick. Batches [0, seg_begin)
/// are the durable image's; [seg_begin, batches.size()) is the measured
/// segment.
struct Trace {
  std::vector<core::PositionUpdate> updates;
  std::vector<Batch> batches;
  std::size_t checkpoint_batch = 0;  // durable image checkpoints before it
  std::size_t seg_begin = 0;
  std::uint64_t vehicle_ticks = 0;
  std::uint64_t generated_updates = 0;  // including those before bulk_tick
  double gen_seconds = 0.0;

  std::span<const core::PositionUpdate> of(std::size_t b) const {
    return {updates.data() + batches[b].begin,
            batches[b].end - batches[b].begin};
  }
};

core::PolicyConfig Policy(core::PolicyKind kind) {
  core::PolicyConfig config;
  config.kind = kind;
  config.update_cost = 5.0;
  config.max_speed = 1.5;
  return config;
}

constexpr core::PolicyKind kPolicies[] = {
    core::PolicyKind::kDelayedLinear,
    core::PolicyKind::kAverageImmediateLinear,
    core::PolicyKind::kCurrentImmediateLinear};

std::unique_ptr<Fleet> BuildFleet(const Workload& w, util::Rng& rng) {
  auto fleet = std::make_unique<Fleet>();
  fleet->network.AddGridNetwork(w.grid, w.grid, w.spacing);
  fleet->extent = static_cast<double>(w.grid - 1) * w.spacing;
  const auto& routes = fleet->network.routes();
  const auto random_route = [&]() -> const geo::Route& {
    return routes[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(routes.size()) - 1))];
  };
  sim::CurveGenOptions curve;  // 60-minute trips, cruise 1, V = 1.5
  core::ObjectId id = 0;
  const auto add = [&](const geo::Route& route, double start,
                       core::TravelDirection dir, sim::SpeedCurve c,
                       core::PolicyKind policy) {
    sim::Trip trip(&route, start, dir, 0.0, std::move(c));
    fleet->vehicles.push_back(std::make_unique<sim::Vehicle>(
        id++, std::move(trip), core::MakePolicy(Policy(policy))));
  };
  if (w.shape == FleetShape::kConvoy) {
    for (std::size_t c = 0; c < w.convoys; ++c) {
      const geo::Route& route = random_route();
      const sim::SpeedCurve profile = sim::MakeConvoyCurve(rng, curve);
      const double base = rng.Uniform(0.0, route.Length() * 0.6);
      for (std::size_t m = 0; m < w.per_convoy; ++m) {
        add(route, base + 0.5 * static_cast<double>(m),
            core::TravelDirection::kForward, profile,
            core::PolicyKind::kCurrentImmediateLinear);
      }
    }
  }
  for (std::size_t i = 0; i < w.vehicles; ++i) {
    const geo::Route& route = random_route();
    sim::SpeedCurve c;
    const std::int64_t kinds = w.shape == FleetShape::kConvoy ? 1 : 3;
    switch (rng.UniformInt(0, kinds)) {
      case 0: c = sim::MakeCityCurve(rng, curve); break;
      case 1: c = sim::MakeHighwayCurve(rng, curve); break;
      case 2: c = sim::MakeTrafficJamCurve(rng, curve); break;
      default: c = sim::MakeRushHourCurve(rng, curve); break;
    }
    const auto dir = rng.Bernoulli(0.5) ? core::TravelDirection::kForward
                                        : core::TravelDirection::kBackward;
    add(route, rng.Uniform(0.0, route.Length()), dir, std::move(c),
        kPolicies[rng.UniformInt(0, 2)]);
  }
  return fleet;
}

/// Runs every onboard computer tick by tick (lossless channel: each update
/// is acknowledged at once) up to the workload's end tick. The vehicles'
/// mirrors after bulk_tick are the bulk-load state; later ticks' updates
/// are cut into uplink batches of `w.batch`, the last one flushed at tick
/// end.
Trace GenerateTrace(Fleet& fleet, const Workload& w) {
  Trace trace;
  for (auto& v : fleet.vehicles) (void)v->InitialAttribute();
  for (int tick = 1; tick <= w.end_tick; ++tick) {
    const core::Time t = tick;
    const std::size_t begin = trace.updates.size();
    for (auto& v : fleet.vehicles) {
      ++trace.vehicle_ticks;
      if (std::optional<core::PositionUpdate> u = v->Tick(t)) {
        ++trace.generated_updates;
        if (tick > w.bulk_tick) trace.updates.push_back(*u);
      }
    }
    if (tick == w.bulk_tick) {
      for (auto& v : fleet.vehicles) fleet.bulk.push_back(v->attribute());
    }
    for (std::size_t b = begin; b < trace.updates.size(); b += w.batch) {
      const std::size_t e = std::min(b + w.batch, trace.updates.size());
      trace.batches.push_back({t, b, e});
    }
    if (tick == w.checkpoint_tick) {
      trace.checkpoint_batch = trace.batches.size();
    }
    if (tick == w.start_tick) trace.seg_begin = trace.batches.size();
  }
  return trace;
}

// ---------------------------------------------------------------- queries

enum class QueryKind { kRange, kNearest, kInterval };
constexpr const char* kKindNames[] = {"range", "nearest", "interval"};

struct QuerySpec {
  QueryKind kind = QueryKind::kRange;
  geo::Polygon region;
  geo::Point2 point;
  std::size_t k = 8;
  double window = 10.0;
};

geo::Polygon RandomSquare(util::Rng& rng, double extent, double side) {
  const double x = rng.Uniform(0.0, extent - side);
  const double y = rng.Uniform(0.0, extent - side);
  return geo::Polygon::Rectangle(x, y, x + side, y + side);
}

/// Query i has kind i % 3 (range, nearest, interval). A block is one grid
/// cell; a district is 4 x 4 cells. The dispatch mix asks three block
/// regions per district region and three k = 1 per k = 8: an even split
/// would put the median on the edge between two latency modes, where it
/// jumps from seed to seed.
std::vector<QuerySpec> MakeQueries(const Workload& w, double extent,
                                   util::Rng& rng) {
  std::vector<QuerySpec> out(kQueryRing);
  for (std::size_t i = 0; i < out.size(); ++i) {
    QuerySpec& q = out[i];
    q.kind = static_cast<QueryKind>(i % 3);
    const bool block = w.dispatch_mix && rng.Bernoulli(0.75);
    q.region = RandomSquare(rng, extent, (block ? 1.0 : 4.0) * w.spacing);
    q.point = {rng.Uniform(0.0, extent), rng.Uniform(0.0, extent)};
    q.k = w.dispatch_mix && rng.Bernoulli(0.75) ? 1 : 8;
    q.window = w.dispatch_mix ? rng.Uniform(5.0, 15.0) : 10.0;
  }
  return out;
}

std::vector<db::SubscriptionSpec> MakeSubscriptions(const Workload& w,
                                                    double extent,
                                                    util::Rng& rng) {
  std::vector<db::SubscriptionSpec> out(kSubscriptions);
  for (std::size_t i = 0; i < out.size(); ++i) {
    db::SubscriptionSpec& s = out[i];
    s.region = RandomSquare(rng, extent,
                            (rng.Bernoulli(0.5) ? 1.0 : 4.0) * w.spacing);
    s.region_text = "bench";
    s.mode = i % 2 == 0 ? db::SubscriptionMode::kMay
                        : db::SubscriptionMode::kMust;
    s.windowed = i % 4 >= 2;
    s.time = rng.Uniform(w.start_tick, w.end_tick);
    s.window_end = s.time + 10.0;
  }
  return out;
}

// ---------------------------------------------------------------- tracing

/// In-memory span log: name, start, end, parent span, request id and the
/// request kind. Written once at exit.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t kind = 0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 18);
  }
  bool on() const { return on_; }
  /// Pauses (false) or resumes recording.
  void Enable(bool on) { on_ = on; }

  /// Opens a span and returns its id (-1 when tracing is off).
  std::int64_t Begin(const char* name, const char* kind, std::int64_t parent,
                     std::uint64_t request) {
    if (!on_) return -1;
    spans_.push_back({Intern(name), Intern(kind), parent, request,
                      Clock::now(), {}});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void End(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }
  /// Records a closed span from timestamps the caller already took.
  void Record(const char* name, const char* kind, std::int64_t parent,
              std::uint64_t request, Clock::time_point start,
              Clock::time_point end) {
    if (on_) spans_.push_back({Intern(name), Intern(kind), parent, request,
                               start, end});
  }

  bool Write(const fs::path& path, Clock::time_point epoch) const {
    std::ofstream out(path);
    out << "id,parent,request,kind,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.parent << ',' << s.request << ','
          << names_[s.kind] << ',' << names_[s.name] << ','
          << std::chrono::duration_cast<std::chrono::nanoseconds>(s.start -
                                                                  epoch)
                 .count()
          << ','
          << std::chrono::duration_cast<std::chrono::nanoseconds>(s.end -
                                                                  epoch)
                 .count()
          << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::uint32_t Intern(const char* name) {
    const auto [it, fresh] =
        ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (fresh) names_.emplace_back(name);
    return it->second;
  }

  bool on_;
  std::vector<Span> spans_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
};

/// Scoped root span; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* kind,
             std::uint64_t request, std::int64_t parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, kind, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// ------------------------------------------------------------- accounting

/// Operations attempted and failed (non-OK statuses, rejected records,
/// partial answers, verification mismatches).
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failures.size() < 8) first_failures.push_back(what);
  }
  void CheckMany(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0 && first_failures.size() < 8) first_failures.push_back(what);
  }
};

std::string RenderIds(const std::vector<core::ObjectId>& ids) {
  std::string out;
  for (core::ObjectId id : ids) {
    out += std::to_string(id);
    out += ',';
  }
  out += ';';
  return out;
}

std::string Render(const db::RangeAnswer& a) {
  std::string out = RenderIds(a.must) + RenderIds(a.may);
  for (double p : a.may_probability) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &p, sizeof bits);
    out += std::to_string(bits);
    out += ',';
  }
  return out;
}

std::string Render(const db::IntervalRangeAnswer& a) {
  return RenderIds(a.may) + RenderIds(a.must_at_some_time);
}

/// A measured range/interval answer kept for the off-the-clock comparison
/// against the linear-scan reference.
struct AnswerSample {
  std::size_t after_batch = 0;  // answer reflects batches [0, after_batch]
  std::size_t query = 0;        // index into the query ring
  core::Time t = 0.0;
  std::string rendered;
};

/// Order-independent digest of the stored records (id + current motion
/// model; the update counters restart on recovery by design).
std::uint64_t RecordFingerprint(const db::ShardedModDatabase& store) {
  std::uint64_t sum = 0;
  store.ForEachRecord([&](const db::MovingObjectRecord& r) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&](const void* p, std::size_t n) {
      const auto* bytes = static_cast<const unsigned char*>(p);
      for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
    };
    mix(&r.id, sizeof r.id);
    mix(&r.attr.start_time, sizeof r.attr.start_time);
    mix(&r.attr.route, sizeof r.attr.route);
    mix(&r.attr.start_route_distance, sizeof r.attr.start_route_distance);
    mix(&r.attr.speed, sizeof r.attr.speed);
    const int dir = static_cast<int>(r.attr.direction);
    mix(&dir, sizeof dir);
    sum += h;
  });
  return sum;
}

struct StoreFingerprint {
  std::uint64_t records = 0;
  std::size_t objects = 0;
  std::int64_t groups = 0;
  std::int64_t grouped_objects = 0;
  bool operator==(const StoreFingerprint&) const = default;
  std::string ToString() const {
    return "{records " + std::to_string(records) + ", objects " +
           std::to_string(objects) + ", groups " + std::to_string(groups) +
           ", grouped " + std::to_string(grouped_objects) + "}";
  }
};

StoreFingerprint Fingerprint(db::ShardedModDatabase& store) {
  return {RecordFingerprint(store), store.num_objects(),
          store.metrics().GetGauge("mod.group.count")->value(),
          store.metrics().GetGauge("mod.group.size")->value()};
}

// ------------------------------------------------------------------ phase

/// Counter readings of the store's registry, for deltas over a phase.
struct Counters {
  std::map<std::string, double> v;
  double operator[](const std::string& k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
};

const char* const kCounterNames[] = {
    "mod.index_probes",       "mod.index.splits",
    "mod.index.pages.hits",   "mod.index.pages.misses",
    "mod.index.pages.reads",  "mod.index.pages.writes",
    "mod.index.pages.evictions", "wal.bytes",
    "wal.syncs",              "mod.group.member_skips",
    "mod.group.splits",       "sub.evals",
    "sub.evals_saved",        "sub.events_emitted",
};

Counters ReadCounters(db::ShardedModDatabase& store) {
  Counters c;
  for (const char* name : kCounterNames) {
    c.v[name] = static_cast<double>(store.metrics().GetCounter(name)->value());
  }
  return c;
}

/// What the repetitions of the measured segment measured.
struct PhaseResult {
  std::size_t reps = 0;
  std::size_t batches = 0;
  std::uint64_t applied = 0;
  double update_seconds = 0.0;
  // Timings by position in the segment, one entry per repetition that got
  // there: batch offset -> ApplyUpdateBatch µs, query slot -> µs. Every
  // repetition replays the same batches and queries, so the median per
  // position filters out a stall that hit one repetition.
  std::vector<std::vector<double>> batch_us;
  std::vector<std::vector<double>> query_us;
  std::vector<double> checkpoint_ms;
  // The running repetition's samples. They are sized once and moved into
  // the tables above only after the repetition's heap sample, so the
  // tables' growth is not counted as the store's heap.
  std::vector<double> rep_batch_us, rep_query_us, rep_checkpoint_ms;
  // Traced-repetition extras.
  double cpu_seconds = 0.0;
  double checkpoint_bytes = 0.0;
  double range_candidates = 0.0, range_answers = 0.0;
  std::size_t range_queries = 0;
  double nearest_candidates = 0.0, nearest_probes = 0.0;
  std::size_t nearest_queries = 0;
  Counters before, after;  // of the last repetition's store
  // At the end of each repetition. The first one also holds the sampled
  // answers, so heap_mb leaves it out when there are others.
  std::vector<double> heap_mb;
  double events = 0.0;
};

/// Inputs shared by the standalone layer replays: the store's options and
/// shard map, and every vehicle's motion model as of the segment start.
struct ReplayInputs {
  db::ShardedModDatabaseOptions options;
  std::size_t shards = 0;
  std::size_t pool_threads = 0;
  std::vector<std::size_t> shard_of;
  std::vector<core::PositionAttribute> attrs;
  std::size_t index_end = 0;  // the index replays [seg_begin, index_end)
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, fs::path work, bool trace)
      : w_(w), seed_(seed), work_(std::move(work)), tracer_(trace) {}

  int Run(double seconds);

 private:
  db::ShardedModDatabaseOptions StoreOptions(const fs::path& dir) const;
  /// One set-up from identical state: a fresh store plus BulkInsert
  /// (resident) or a restart from a fresh copy of the image (durable).
  /// Returns its wall time.
  double SetUp();
  void TearDown();
  void BuildImage();
  /// `sample`: keep the first repetition's answer samples for the
  /// reference comparison.
  PhaseResult Measure(double seconds, bool one_rep, bool sample);
  void ApplyBatch(std::size_t b, PhaseResult& r);
  void RunQueries(std::size_t b, PhaseResult& r,
                  std::uint64_t request);
  void CheckPositions(core::Time t);
  void CheckReference();
  void ReplayLayers(std::map<std::string, double>& out);
  void ReplayIndex(ReplayInputs in, std::map<std::string, double>& out);
  void ReplayFanout(const ReplayInputs& in,
                    std::map<std::string, double>& out);
  void ReplayWal(const ReplayInputs& in, std::map<std::string, double>& out);
  std::uint64_t CheckpointBytes() const;

  const Workload& w_;
  std::uint64_t seed_;
  fs::path work_;
  Tracer tracer_;
  Ledger ledger_;
  Clock::time_point epoch_ = Clock::now();

  std::unique_ptr<Fleet> fleet_;
  Trace trace_;
  std::vector<QuerySpec> queries_;
  std::vector<db::SubscriptionSpec> subscriptions_;
  std::unique_ptr<db::ShardedModDatabase> store_;
  fs::path store_dir_;
  StoreFingerprint image_fingerprint_;
  std::vector<double> setup_seconds_;
  std::uint64_t setups_ = 0;
  double heap_baseline_ = 0.0;
  std::uint64_t since_checkpoint_ = 0;

  util::Rng sample_rng_{0};
  std::vector<AnswerSample> samples_[3];
  std::size_t sampled_seen_[3] = {0, 0, 0};
  bool sampling_ = false;
};

db::ShardedModDatabaseOptions Bench::StoreOptions(const fs::path& dir) const {
  db::ShardedModDatabaseOptions o;  // 8 shards, fan-out pool auto-sized
  if (!w_.durable) return o;
  o.durable_dir = dir.string();
  o.durability.wal.sync_every_bytes = kWalSyncBytes;
  o.db.index_storage.kind = storage::StorageKind::kDisk;
  o.db.index_storage.path = (dir / "index.pages").string();
  o.db.index_storage.pool_pages = kPoolPagesPerShard;
  o.db.group_tracking.enabled = true;
  o.enable_subscriptions = true;
  return o;
}

std::vector<db::ModDatabase::BulkObject> BulkObjects(const Fleet& fleet) {
  std::vector<db::ModDatabase::BulkObject> out;
  out.reserve(fleet.bulk.size());
  for (std::size_t i = 0; i < fleet.bulk.size(); ++i) {
    out.push_back({static_cast<core::ObjectId>(i), "v" + std::to_string(i),
                   fleet.bulk[i]});
  }
  return out;
}

void CopyShardDirs(const fs::path& from, const fs::path& to) {
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    if (entry.is_directory()) {
      fs::copy(entry.path(), to / entry.path().filename(),
               fs::copy_options::recursive);
    }
  }
}

void Bench::TearDown() {
  store_.reset();
  if (!store_dir_.empty()) fs::remove_all(store_dir_);
  store_dir_.clear();
}

double Bench::SetUp() {
  const std::uint64_t rep = setups_++;
  TearDown();
  heap_baseline_ = LiveHeapBytes();
  ScopedSpan root(tracer_, "bench.setup", "setup", rep);
  if (!w_.durable) {
    std::vector<db::ModDatabase::BulkObject> objects = BulkObjects(*fleet_);
    const auto t0 = Clock::now();
    store_ = std::make_unique<db::ShardedModDatabase>(&fleet_->network,
                                                      StoreOptions({}));
    const auto t1 = Clock::now();
    const util::Status s = store_->BulkInsert(std::move(objects));
    const auto t2 = Clock::now();
    tracer_.Record("db.sharded.construct", "setup", root.id(), rep, t0, t1);
    tracer_.Record("db.sharded.BulkInsert", "setup", root.id(), rep, t1, t2);
    ledger_.Check(s.ok(), "BulkInsert: " + s.message());
    return Seconds(t2 - t0);
  }
  store_dir_ = work_ / ("restart-" + std::to_string(rep));
  fs::remove_all(store_dir_);
  CopyShardDirs(work_ / "image", store_dir_);
  const auto t0 = Clock::now();
  store_ = std::make_unique<db::ShardedModDatabase>(&fleet_->network,
                                                    StoreOptions(store_dir_));
  const auto t1 = Clock::now();
  bool subscribed = true;
  for (std::size_t i = 0; i < subscriptions_.size(); ++i) {
    subscribed &= store_->Subscribe(i + 1, subscriptions_[i]).ok();
  }
  const auto t2 = Clock::now();
  tracer_.Record("db.sharded.restart", "setup", root.id(), rep, t0, t1);
  tracer_.Record("db.sharded.Subscribe", "setup", root.id(), rep, t1, t2);
  ledger_.Check(store_->durability_status().ok() &&
                    store_->recovery_report().clean,
                "restart: " + store_->durability_status().message());
  ledger_.Check(subscribed, "Subscribe failed");
  const StoreFingerprint restarted = Fingerprint(*store_);
  ledger_.Check(restarted == image_fingerprint_,
                "restarted store's fingerprint " + restarted.ToString() +
                    " differs from its image's " +
                    image_fingerprint_.ToString());
  return Seconds(t2 - t0);
}

/// Prepares the durable restart image: the bulk state plus the ticks up to
/// start_tick, checkpointed after checkpoint_tick (the rest is WAL tail).
void Bench::BuildImage() {
  const fs::path image = work_ / "image";
  fs::remove_all(image);
  db::ShardedModDatabase store(&fleet_->network, StoreOptions(image));
  ledger_.Check(store.durability_status().ok(), "image bootstrap");
  const util::Status s = store.BulkInsert(BulkObjects(*fleet_));
  ledger_.Check(s.ok(), "image BulkInsert: " + s.message());
  for (std::size_t b = 0; b < trace_.seg_begin; ++b) {
    if (b == trace_.checkpoint_batch) {
      const util::Status c = store.Checkpoint();
      ledger_.Check(c.ok(), "image checkpoint: " + c.message());
    }
    const db::UpdateBatchResult r = store.ApplyUpdateBatch(trace_.of(b));
    ledger_.CheckMany(r.statuses.size(), r.statuses.size() - r.applied,
                      "image batch: " + r.first_error().message());
  }
  (void)store.TakeSubscriptionEvents();
  image_fingerprint_ = Fingerprint(store);
}

std::uint64_t Bench::CheckpointBytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : fs::directory_iterator(store_dir_)) {
    if (!shard.is_directory()) continue;
    fs::path newest;
    for (const auto& f : fs::directory_iterator(shard.path())) {
      const std::string name = f.path().filename().string();
      if (name.rfind("checkpoint-", 0) == 0 &&
          f.path().extension() == ".snap" &&
          (newest.empty() || f.path().filename() > newest.filename())) {
        newest = f.path();
      }
    }
    if (!newest.empty()) total += fs::file_size(newest);
  }
  return total;
}

void Bench::RunQueries(std::size_t b, PhaseResult& r,
                       std::uint64_t request) {
  const core::Time t = trace_.batches[b].t;
  util::Counter* probes = store_->metrics().GetCounter("mod.index_probes");
  for (std::size_t j = 0; j < w_.queries_per_batch; ++j) {
    const std::size_t slot =
        (b - trace_.seg_begin) * w_.queries_per_batch + j;
    const std::size_t qi = slot % queries_.size();
    const QuerySpec& q = queries_[qi];
    const int kind = static_cast<int>(q.kind);
    const std::uint64_t rid = request * 64 + j + 1;
    ScopedSpan root(tracer_, "bench.query", kKindNames[kind], rid);
    std::optional<db::RangeAnswer> range;
    std::optional<db::IntervalRangeAnswer> interval;
    const double probes0 = static_cast<double>(probes->value());
    Clock::time_point t0, t1;
    const char* span = nullptr;
    bool complete = true;
    switch (q.kind) {
      case QueryKind::kRange: {
        t0 = Clock::now();
        range = store_->QueryRange(q.region, t);
        t1 = Clock::now();
        span = "db.sharded.QueryRange";
        complete = range->completeness.complete;
        r.range_candidates += static_cast<double>(range->candidates_examined);
        r.range_answers +=
            static_cast<double>(range->must.size() + range->may.size());
        ++r.range_queries;
        break;
      }
      case QueryKind::kNearest: {
        t0 = Clock::now();
        const db::NearestAnswer a = store_->QueryNearest(q.point, q.k, t);
        t1 = Clock::now();
        span = "db.sharded.QueryNearest";
        complete = a.completeness.complete &&
                   a.items.size() == std::min(q.k, fleet_->bulk.size());
        r.nearest_candidates += static_cast<double>(a.candidates_examined);
        r.nearest_probes += static_cast<double>(probes->value()) - probes0;
        ++r.nearest_queries;
        break;
      }
      case QueryKind::kInterval: {
        t0 = Clock::now();
        interval = store_->QueryRangeInterval(q.region, t, t + q.window);
        t1 = Clock::now();
        span = "db.sharded.QueryRangeInterval";
        complete = interval->completeness.complete;
        break;
      }
    }
    tracer_.Record(span, kKindNames[kind], root.id(), rid, t0, t1);
    r.rep_query_us[slot] = Micros(t1 - t0);
    ledger_.Check(complete,
                  std::string("partial ") + kKindNames[kind] + " answer");
    if (!sampling_ || q.kind == QueryKind::kNearest) continue;
    // Reservoir sample of the answers for the reference comparison.
    auto& pool = samples_[kind];
    const std::size_t seen = sampled_seen_[kind]++;
    std::size_t keep = pool.size();
    if (keep >= kReferenceSamples) {
      keep = static_cast<std::size_t>(
          sample_rng_.UniformInt(0, static_cast<std::int64_t>(seen)));
    }
    if (keep >= kReferenceSamples) continue;
    AnswerSample s{b, qi, t, range ? Render(*range) : Render(*interval)};
    if (keep == pool.size()) {
      pool.push_back(std::move(s));
    } else {
      pool[keep] = std::move(s);
    }
  }
}

/// One uplink batch through ApplyUpdateBatch (timed), then the durable
/// workload's event drain and periodic checkpoint (not part of the update
/// clock).
void Bench::ApplyBatch(std::size_t b, PhaseResult& r) {
  ScopedSpan root(tracer_, "bench.batch", "batch", b);
  const std::span<const core::PositionUpdate> updates = trace_.of(b);
  const bool traced = tracer_.on();
  const double cpu0 = traced ? CpuSeconds() : 0.0;
  const auto t0 = Clock::now();
  const db::UpdateBatchResult res = store_->ApplyUpdateBatch(updates);
  const auto t1 = Clock::now();
  if (traced) r.cpu_seconds += CpuSeconds() - cpu0;
  tracer_.Record("db.sharded.ApplyUpdateBatch", "batch", root.id(), b, t0,
                 t1);
  r.update_seconds += Seconds(t1 - t0);
  r.applied += res.applied;
  r.rep_batch_us[b - trace_.seg_begin] = Micros(t1 - t0);
  ledger_.CheckMany(updates.size(), updates.size() - res.applied,
                    "ApplyUpdateBatch: " + res.first_error().message());
  if (w_.durable) {
    const auto e0 = Clock::now();
    r.events += static_cast<double>(store_->TakeSubscriptionEvents().size());
    tracer_.Record("db.sharded.TakeSubscriptionEvents", "batch", root.id(),
                   b, e0, Clock::now());
    since_checkpoint_ += res.applied;
    if (since_checkpoint_ >= kCheckpointEvery) {
      since_checkpoint_ = 0;
      const auto c0 = Clock::now();
      const util::Status s = store_->Checkpoint();
      const auto c1 = Clock::now();
      tracer_.Record("db.sharded.Checkpoint", "batch", root.id(), b, c0, c1);
      r.rep_checkpoint_ms.push_back(1e3 * Seconds(c1 - c0));
      ledger_.Check(s.ok(), "Checkpoint: " + s.message());
      r.checkpoint_bytes += static_cast<double>(CheckpointBytes());
    }
  }
}

/// Replays the measured segment closed-loop, one repetition after another
/// from identical set-ups, until `seconds` of replay time have passed
/// (`one_rep`: exactly one repetition on the current store). A repetition
/// cut short by the clock is finished off the clock without queries, so
/// the store ends at the segment's end and every repetition contributes a
/// heap sample at the same trace position.
PhaseResult Bench::Measure(double seconds, bool one_rep, bool sample) {
  PhaseResult r;
  double replayed = 0.0;
  const std::size_t segment = trace_.batches.size() - trace_.seg_begin;
  r.batch_us.resize(segment);
  r.query_us.resize(segment * w_.queries_per_batch);
  r.rep_batch_us.resize(r.batch_us.size());
  r.rep_query_us.resize(r.query_us.size());
  r.rep_checkpoint_ms.reserve(
      (trace_.batches.back().end - trace_.batches[trace_.seg_begin].begin) /
          kCheckpointEvery +
      1);
  for (;; ++r.reps) {
    if (r.reps > 0) {
      if (one_rep || replayed >= seconds) break;
      (void)SetUp();
    }
    // Every repetition answers the same queries on the same state, so the
    // first one's answers are a sample of all of them.
    sampling_ = sample && r.reps == 0;
    r.rep_checkpoint_ms.clear();
    r.before = ReadCounters(*store_);
    since_checkpoint_ = 0;
    const std::uint64_t applied0 = r.applied;
    const double update_seconds0 = r.update_seconds;
    const auto start = Clock::now();
    std::size_t b = trace_.seg_begin;
    for (; b < trace_.batches.size(); ++b) {
      if (!one_rep && replayed + Seconds(Clock::now() - start) >= seconds) {
        break;
      }
      ApplyBatch(b, r);
      RunQueries(b, r, b);
      ++r.batches;
    }
    replayed += Seconds(Clock::now() - start);
    const std::size_t timed = b - trace_.seg_begin;
    std::printf("repetition %zu: %zu batches, %.1f updates/s\n", r.reps,
                timed,
                Ratio(static_cast<double>(r.applied - applied0),
                      r.update_seconds - update_seconds0));
    for (; b < trace_.batches.size(); ++b) {
      const db::UpdateBatchResult res = store_->ApplyUpdateBatch(trace_.of(b));
      ledger_.CheckMany(res.statuses.size(), res.statuses.size() - res.applied,
                        "ApplyUpdateBatch: " + res.first_error().message());
      if (w_.durable) (void)store_->TakeSubscriptionEvents();
    }
    r.heap_mb.push_back((LiveHeapBytes() - heap_baseline_) /
                        (1024.0 * 1024.0));
    r.after = ReadCounters(*store_);
    for (std::size_t i = 0; i < timed; ++i) {
      r.batch_us[i].push_back(r.rep_batch_us[i]);
    }
    for (std::size_t i = 0; i < timed * w_.queries_per_batch; ++i) {
      r.query_us[i].push_back(r.rep_query_us[i]);
    }
    r.checkpoint_ms.insert(r.checkpoint_ms.end(), r.rep_checkpoint_ms.begin(),
                           r.rep_checkpoint_ms.end());
  }
  sampling_ = false;
  return r;
}

/// Props 2-4: every sampled vehicle's ground-truth position lies inside the
/// uncertainty interval QueryPosition answers (within the tick
/// discretisation tolerance the fleet simulator uses).
void Bench::CheckPositions(core::Time t) {
  util::Rng rng(seed_ ^ 0x5eedull);
  for (std::size_t i = 0; i < kPositionSamples; ++i) {
    const auto id = static_cast<core::ObjectId>(rng.UniformInt(
        0, static_cast<std::int64_t>(fleet_->vehicles.size()) - 1));
    const sim::VehicleBase& v = *fleet_->vehicles[id];
    const auto answer = store_->QueryPosition(id, t);
    if (!answer.ok()) {
      ledger_.Check(false, "QueryPosition: " + answer.status().message());
      continue;
    }
    const double actual = v.GroundTruthRouteDistanceAt(t);
    // Two ticks of travel at V = 1.5: the fleet simulator's tolerance for
    // the tick discretisation.
    const double tolerance = 2.0 * 1.5 * 1.0 + 1e-9;
    const bool inside = v.GroundTruthRouteIdAt(t) == answer->route &&
                        actual >= answer->uncertainty.lo - tolerance &&
                        actual <= answer->uncertainty.hi + tolerance;
    ledger_.Check(inside, "vehicle " + std::to_string(id) +
                              " outside its deviation bound");
  }
}

/// Byte-for-byte comparison of the sampled range / interval answers with a
/// linear-scan ModDatabase fed the same batches.
void Bench::CheckReference() {
  db::ModDatabaseOptions options;
  options.index_kind = db::IndexKind::kLinearScan;
  db::ModDatabase ref(&fleet_->network, options);
  const util::Status s = ref.BulkInsert(BulkObjects(*fleet_));
  ledger_.Check(s.ok(), "reference BulkInsert: " + s.message());
  std::vector<const AnswerSample*> order;
  for (int k : {0, 2}) {
    for (const AnswerSample& a : samples_[k]) order.push_back(&a);
  }
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->after_batch < b->after_batch;
  });
  std::size_t next = 0;
  for (std::size_t b = 0; b < trace_.batches.size(); ++b) {
    const db::UpdateBatchResult r = ref.ApplyUpdateBatch(trace_.of(b));
    ledger_.CheckMany(0, r.statuses.size() - r.applied,
                      "reference rejected an update");
    for (; next < order.size() && order[next]->after_batch == b; ++next) {
      const AnswerSample& a = *order[next];
      const QuerySpec& q = queries_[a.query];
      const std::string expect =
          q.kind == QueryKind::kRange
              ? Render(ref.QueryRange(q.region, a.t))
              : Render(ref.QueryRangeInterval(q.region, a.t, a.t + q.window));
      ledger_.Check(expect == a.rendered,
                    std::string(kKindNames[static_cast<int>(q.kind)]) +
                        " answer differs from the linear-scan reference "
                        "after batch " +
                        std::to_string(b));
    }
  }
}

// --------------------------------------------------------- layer replays

/// Applies batch `b`'s updates to `attrs` (the store's merge: every field
/// the update carries replaces the model's, policy parameters stay).
void ApplyToModels(const Trace& trace, std::size_t b,
                   std::vector<core::PositionAttribute>& attrs) {
  for (const core::PositionUpdate& u : trace.of(b)) {
    core::PositionAttribute& a = attrs[u.object];
    a.start_time = u.time;
    a.route = u.route;
    a.start_route_distance = u.route_distance;
    a.start_position = u.position;
    a.direction = u.direction;
    a.speed = u.speed;
  }
}

/// Standalone replays of single layers: the index and the uncertainty
/// refine over the first `replay_batches` of the measured segment, the
/// fan-out pool, and the WAL over the whole segment.
void Bench::ReplayLayers(std::map<std::string, double>& m) {
  ReplayInputs in;
  in.index_end = std::min(trace_.batches.size(),
                          trace_.seg_begin + w_.replay_batches);
  in.options = StoreOptions(work_ / "replay");
  in.shards = store_->num_shards();
  in.pool_threads = store_->num_query_threads();
  in.shard_of.resize(fleet_->bulk.size());
  for (std::size_t id = 0; id < in.shard_of.size(); ++id) {
    in.shard_of[id] = store_->ShardOf(id);
  }
  in.attrs = fleet_->bulk;
  for (std::size_t b = 0; b < trace_.seg_begin; ++b) {
    ApplyToModels(trace_, b, in.attrs);
  }
  fs::remove_all(work_ / "replay");
  fs::create_directories(work_ / "replay");
  ReplayIndex(in, m);
  ReplayFanout(in, m);
  ReplayWal(in, m);
  fs::remove_all(work_ / "replay");
}

/// One TimeSpaceIndex per shard, built with the store's o-plane and
/// storage options (a default-built index would use a 60-unit horizon
/// against the store's 120 and measure half the boxes), fed the deduped
/// deltas of the replayed batches and probed with their range and interval
/// regions; the range candidates go through the refine.
void Bench::ReplayIndex(ReplayInputs in, std::map<std::string, double>& m) {
  util::MetricsRegistry registry;
  std::vector<std::unique_ptr<index::TimeSpaceIndex>> idx;
  std::vector<util::Counter*> fetch_hits, fetch_misses, splits;
  for (std::size_t s = 0; s < in.shards; ++s) {
    index::TimeSpaceIndex::Options io;
    io.oplane.horizon = in.options.db.oplane_horizon;
    io.oplane.slab_width = in.options.db.oplane_slab_width;
    io.rtree.storage = in.options.db.index_storage;
    if (io.rtree.storage.kind == storage::StorageKind::kDisk) {
      io.rtree.storage.path += ".shard" + std::to_string(s);
    }
    idx.push_back(
        std::make_unique<index::TimeSpaceIndex>(&fleet_->network, io));
    const std::string prefix = "s" + std::to_string(s) + ".";
    idx.back()->SetMetrics(&registry, prefix);
    fetch_hits.push_back(registry.GetCounter(prefix + "pages.hits"));
    fetch_misses.push_back(registry.GetCounter(prefix + "pages.misses"));
    splits.push_back(registry.GetCounter(prefix + "splits"));
  }
  std::vector<std::vector<std::pair<core::ObjectId, core::PositionAttribute>>>
      parts(in.shards);
  for (std::size_t id = 0; id < in.attrs.size(); ++id) {
    parts[in.shard_of[id]].emplace_back(id, in.attrs[id]);
  }
  for (std::size_t s = 0; s < in.shards; ++s) {
    ledger_.Check(idx[s]->BulkUpsert(parts[s]).ok(), "replay BulkUpsert");
  }
  const auto fetches = [&]() {
    double total = 0;
    for (std::size_t s = 0; s < in.shards; ++s) {
      total += static_cast<double>(fetch_hits[s]->value() +
                                   fetch_misses[s]->value());
    }
    return total;
  };
  const auto split_total = [&]() {
    double total = 0;
    for (auto* c : splits) total += static_cast<double>(c->value());
    return total;
  };
  double delta_us = 0, delta_updates = 0, delta_fetches = 0;
  const double splits0 = split_total();
  std::vector<double> probe_us, window_probe_us, query_fetches;
  double refine_ns = 0, refine_candidates = 0;
  double expected_inside = 0;  // printed, so the refine work is observable
  const std::size_t first = trace_.seg_begin;
  for (std::size_t b = first; b < in.index_end; ++b) {
    {
      ScopedSpan root(tracer_, "bench.index_replay", "replay.index", b);
      // Per shard, each touched object's final model in first-touch order,
      // exactly the dedup the store's index-delta stage does.
      std::vector<std::vector<core::ObjectId>> touched(in.shards);
      std::unordered_map<core::ObjectId, bool> seen;
      for (const core::PositionUpdate& u : trace_.of(b)) {
        if (seen.emplace(u.object, true).second) {
          touched[in.shard_of[u.object]].push_back(u.object);
        }
      }
      ApplyToModels(trace_, b, in.attrs);
      for (std::size_t s = 0; s < in.shards; ++s) {
        if (touched[s].empty()) continue;
        std::vector<index::IndexDelta> deltas;
        for (core::ObjectId id : touched[s]) {
          deltas.push_back({id, &in.attrs[id]});
        }
        const double f0 = fetches();
        const auto t0 = Clock::now();
        const util::Status st = idx[s]->ApplyDeltaBatch(deltas);
        const auto t1 = Clock::now();
        tracer_.Record("index.ApplyDeltaBatch", "replay.index", root.id(), b,
                       t0, t1);
        ledger_.Check(st.ok(), "replay ApplyDeltaBatch: " + st.message());
        delta_us += Micros(t1 - t0);
        delta_fetches += fetches() - f0;
        delta_updates += static_cast<double>(deltas.size());
      }
    }
    const core::Time t = trace_.batches[b].t;
    for (std::size_t j = 0; j < w_.queries_per_batch; ++j) {
      const QuerySpec& q =
          queries_[((b - first) * w_.queries_per_batch + j) % queries_.size()];
      if (q.kind == QueryKind::kNearest) continue;
      const bool window = q.kind == QueryKind::kInterval;
      const std::uint64_t rid = b * 64 + j + 1;
      ScopedSpan probe(tracer_, "bench.probe_replay", "replay.probe", rid);
      const double f0 = fetches();
      std::vector<core::ObjectId> candidates;
      const auto t0 = Clock::now();
      for (std::size_t s = 0; s < in.shards; ++s) {
        std::vector<core::ObjectId> c =
            window ? idx[s]->CandidatesInWindow(q.region, t, t + q.window)
                   : idx[s]->Candidates(q.region, t);
        candidates.insert(candidates.end(), c.begin(), c.end());
      }
      const auto t1 = Clock::now();
      tracer_.Record(window ? "index.CandidatesInWindow" : "index.Candidates",
                     "replay.probe", probe.id(), rid, t0, t1);
      (window ? window_probe_us : probe_us).push_back(Micros(t1 - t0));
      query_fetches.push_back(fetches() - f0);
      if (window) continue;
      const auto r0 = Clock::now();
      for (core::ObjectId id : candidates) {
        const core::PositionAttribute& a = in.attrs[id];
        const geo::Route& route = fleet_->network.route(a.route);
        const core::UncertaintyInterval iv =
            core::ComputeUncertainty(a, route, t);
        switch (core::ClassifyAgainstPolygon(iv, route, q.region)) {
          case core::RegionRelation::kMustBeIn: expected_inside += 1; break;
          case core::RegionRelation::kMayBeIn:
            expected_inside += core::ProbabilityInPolygon(iv, route, q.region);
            break;
          case core::RegionRelation::kOutside: break;
        }
      }
      const auto r1 = Clock::now();
      tracer_.Record("core.refine", "replay.probe", probe.id(), rid, r0, r1);
      refine_ns += 1e3 * Micros(r1 - r0);
      refine_candidates += static_cast<double>(candidates.size());
    }
  }
  double entries = 0, objects = 0;
  for (const auto& i : idx) {
    entries += static_cast<double>(i->num_entries());
    objects += static_cast<double>(i->num_objects());
  }
  m["index.delta_us_per_update"] = Ratio(delta_us, delta_updates);
  m["index.entries_per_object"] = Ratio(entries, objects);
  m["index.splits_per_1k_updates"] =
      1e3 * Ratio(split_total() - splits0, delta_updates);
  m["index.node_fetches_per_update"] = Ratio(delta_fetches, delta_updates);
  m["index.probe_us"] = Median(probe_us);
  m["index.window_probe_us"] = Median(window_probe_us);
  m["index.node_fetches_per_query"] = Median(query_fetches);
  m["core.refine_ns_per_candidate"] = Ratio(refine_ns, refine_candidates);
  std::printf("replay index: %zu batches, %.0f deduped updates, %zu range + "
              "%zu window probes, %.0f refined candidates (%.1f expected "
              "inside)\n",
              in.index_end - first, delta_updates, probe_us.size(),
              window_probe_us.size(), refine_candidates, expected_inside);
}

/// An empty ParallelFor over the shards on a pool of the store's size.
void Bench::ReplayFanout(const ReplayInputs& in,
                         std::map<std::string, double>& m) {
  util::ThreadPool pool(in.pool_threads);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    pool.ParallelFor(in.shards, [](std::size_t) {});
    const auto t1 = Clock::now();
    tracer_.Record("util.ParallelFor", "replay.fanout", -1, i, t0, t1);
    us.push_back(Micros(t1 - t0));
  }
  m["util.fanout_us"] = Median(us);
}

/// Per-shard WalWriters with the store's options appending the segment's
/// batches split by shard, in the framing the store uses with group
/// tracking on (durable workload only; 0 elsewhere).
void Bench::ReplayWal(const ReplayInputs& in,
                      std::map<std::string, double>& m) {
  m["wal.append_us_per_batch"] = 0.0;
  m["wal.sync_ms"] = 0.0;
  if (!w_.durable) return;
  util::MetricsRegistry registry;
  std::vector<std::unique_ptr<db::WalWriter>> writers;
  for (std::size_t s = 0; s < in.shards; ++s) {
    auto wr = db::WalWriter::Open(
        (work_ / "replay" / ("wal-" + std::to_string(s))).string(), 1,
        in.options.durability.wal);
    ledger_.Check(wr.ok(), "replay WalWriter::Open: " + wr.status().message());
    if (!wr.ok()) return;
    (*wr)->SetMetrics(&registry);
    writers.push_back(std::move(*wr));
  }
  util::Counter* syncs = registry.GetCounter("wal.syncs");
  std::vector<double> batch_us, sync_ms;
  for (std::size_t b = trace_.seg_begin; b < trace_.batches.size(); ++b) {
    ScopedSpan root(tracer_, "bench.wal_replay", "replay.wal", b);
    std::vector<std::vector<core::PositionUpdate>> parts(in.shards);
    for (const core::PositionUpdate& u : trace_.of(b)) {
      parts[in.shard_of[u.object]].push_back(u);
    }
    double total = 0;
    for (std::size_t s = 0; s < in.shards; ++s) {
      if (parts[s].empty()) continue;
      const std::uint64_t s0 = syncs->value();
      const auto t0 = Clock::now();
      const util::Status st =
          writers[s]->AppendGroupBatch(parts[s], {}, fleet_->network);
      const auto t1 = Clock::now();
      tracer_.Record("db.wal.AppendGroupBatch", "replay.wal", root.id(), b, t0,
                     t1);
      ledger_.Check(st.ok(), "replay WAL append: " + st.message());
      total += Micros(t1 - t0);
      if (syncs->value() > s0) sync_ms.push_back(1e-3 * Micros(t1 - t0));
    }
    batch_us.push_back(total);
  }
  m["wal.append_us_per_batch"] = Median(batch_us);
  m["wal.sync_ms"] = Median(sync_ms);
  std::printf("replay wal: %zu batches, %zu appends that synced\n",
              batch_us.size(), sync_ms.size());
}

// ----------------------------------------------------------------- output

/// Per-layer metrics of the traced run, in print order (BENCHMARK.json
/// lists the same names and units). A layer that does no work on a
/// workload reports 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"db.sharded.batch_p99_ms", "ms"},
    {"db.sharded.cpu_us_per_update", "us/update"},
    {"db.sharded.checkpoint_ms", "ms"},
    {"db.sharded.range_p99_us", "us"},
    {"db.sharded.nearest_p99_us", "us"},
    {"db.sharded.interval_p99_us", "us"},
    {"db.write_bytes_per_update", "B/update"},
    {"db.mod.candidates_per_range", "count"},
    {"db.mod.answer_share", "ratio"},
    {"db.mod.nearest_candidates", "count"},
    {"db.mod.index_probes_per_nearest", "count"},
    {"index.delta_us_per_update", "us/update"},
    {"index.entries_per_object", "count"},
    {"index.splits_per_1k_updates", "count"},
    {"index.node_fetches_per_update", "count"},
    {"index.probe_us", "us"},
    {"index.window_probe_us", "us"},
    {"index.node_fetches_per_query", "count"},
    {"storage.hit_rate", "ratio"},
    {"storage.page_reads_per_update", "count"},
    {"storage.evictions_per_update", "count"},
    {"storage.page_writes_per_update", "count"},
    {"wal.bytes_per_update", "B/update"},
    {"wal.syncs_per_1k_updates", "count"},
    {"wal.append_us_per_batch", "us"},
    {"wal.sync_ms", "ms"},
    {"recovery.records_replayed", "count"},
    {"recovery.objects_restored", "count"},
    {"recovery.duration_ms", "ms"},
    {"group.member_skip_share", "ratio"},
    {"group.splits_per_1k_updates", "count"},
    {"group.mean_size", "count"},
    {"sub.evals_per_update", "count"},
    {"sub.evals_saved_share", "ratio"},
    {"sub.events_per_update", "count"},
    {"core.refine_ns_per_candidate", "ns"},
    {"util.fanout_us", "us"},
    {"sim.updates_per_vehicle_tick", "ratio"},
    {"sim.trace_gen_s", "s"},
    {"trace.update_overhead_pct", "%"},
    {"trace.range_overhead_pct", "%"},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;  // 0 when not a sample statistic
};

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("metric %-34s %14.6f %-10s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("failed_share %.6f (%llu of %llu operations)\n",
              Ratio(static_cast<double>(ledger.failed),
                    static_cast<double>(ledger.attempted)),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));
  for (const std::string& f : ledger.first_failures) {
    std::printf("failure: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += ledger.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Updates per second of the median repetition: segment updates over the
/// sum, across batch positions, of the median ApplyUpdateBatch time.
double UpdateThroughput(const PhaseResult& r, const Trace& trace) {
  double updates = 0.0, us = 0.0;
  for (std::size_t i = 0; i < r.batch_us.size(); ++i) {
    if (r.batch_us[i].empty()) continue;
    const Batch& b = trace.batches[trace.seg_begin + i];
    updates += static_cast<double>(b.end - b.begin);
    us += Median(r.batch_us[i]);
  }
  return Ratio(updates, us * 1e-6);
}

/// Per-slot median latencies of the queries of one kind.
std::vector<double> SlotMedians(const PhaseResult& r,
                                const std::vector<QuerySpec>& queries,
                                QueryKind kind) {
  std::vector<double> out;
  for (std::size_t slot = 0; slot < r.query_us.size(); ++slot) {
    if (!r.query_us[slot].empty() &&
        queries[slot % queries.size()].kind == kind) {
      out.push_back(Median(r.query_us[slot]));
    }
  }
  return out;
}

/// Every sample of a position-indexed timing table.
std::vector<double> Flatten(const std::vector<std::vector<double>>& table) {
  std::vector<double> out;
  for (const auto& v : table) out.insert(out.end(), v.begin(), v.end());
  return out;
}

std::vector<Metric> EndToEnd(const PhaseResult& r, const Trace& trace,
                             const std::vector<QuerySpec>& queries,
                             const std::vector<double>& setups) {
  std::vector<Metric> out = {
      {"setup_s", Median(setups), "s", setups.size()},
      {"update_throughput", UpdateThroughput(r, trace), "updates/s",
       r.batches},
  };
  const char* names[] = {"range_p50_us", "nearest_p50_us", "interval_p50_us"};
  for (int k = 0; k < 3; ++k) {
    const std::vector<double> slots =
        SlotMedians(r, queries, static_cast<QueryKind>(k));
    out.push_back({names[k], Median(slots), "us", slots.size()});
  }
  const std::vector<double> heap(
      r.heap_mb.begin() + (r.heap_mb.size() > 1 ? 1 : 0), r.heap_mb.end());
  out.push_back({"heap_mb", Median(heap), "MiB", heap.size()});
  return out;
}

int Bench::Run(double seconds) {
  std::printf("workload %s seed %llu seconds %g trace %d\n", w_.name,
              static_cast<unsigned long long>(seed_), seconds,
              tracer_.on() ? 1 : 0);
  fs::create_directories(work_);
  // ---- inputs, all from the seed
  {
    ScopedSpan span(tracer_, "sim.trace_gen", "sim", 0);
    const auto t0 = Clock::now();
    util::Rng rng(seed_);
    fleet_ = BuildFleet(w_, rng);
    trace_ = GenerateTrace(*fleet_, w_);
    trace_.gen_seconds = Seconds(Clock::now() - t0);
    queries_ = MakeQueries(w_, fleet_->extent, rng);
    if (w_.durable) subscriptions_ = MakeSubscriptions(w_, fleet_->extent, rng);
  }
  sample_rng_ = util::Rng(seed_ * 7919 + 17);
  std::printf("fleet: %zu vehicles on %zu streets; %zu updates in %zu "
              "batches after tick %d, segment = batches %zu.. (%.3f s to "
              "generate)\n",
              fleet_->vehicles.size(), fleet_->network.size(),
              trace_.updates.size(), trace_.batches.size(), w_.bulk_tick,
              trace_.seg_begin, trace_.gen_seconds);
  if (w_.durable) BuildImage();

  // ---- set-up: an untimed warm-up (the first second or so of activity
  // after the machine idles runs slow), then timed set-ups, each after an
  // identical one. (The set-ups between repetitions follow a store that
  // took updates, which leaves more freed memory behind, so they are not
  // timed.)
  {
    const auto warm = Clock::now();
    for (int i = 0; i < 2 || Seconds(Clock::now() - warm) < kWarmupSeconds;
         ++i) {
      (void)SetUp();
    }
    for (int i = 0; i < w_.timed_setups; ++i) setup_seconds_.push_back(SetUp());
  }

  std::vector<Metric> metrics;
  PhaseResult r;
  if (!tracer_.on()) {
    r = Measure(seconds, /*one_rep=*/false, /*sample=*/true);
    metrics = EndToEnd(r, trace_, queries_, setup_seconds_);
  } else {
    // Untraced repetitions, then one traced repetition of the same
    // segment: the difference is the tracing overhead.
    tracer_.Enable(false);
    const PhaseResult plain =
        Measure(seconds / 2, /*one_rep=*/false, /*sample=*/false);
    tracer_.Enable(true);
    (void)SetUp();
    r = Measure(0.0, /*one_rep=*/true, /*sample=*/true);
    const std::vector<Metric> untraced =
        EndToEnd(plain, trace_, queries_, setup_seconds_);
    const std::vector<Metric> traced =
        EndToEnd(r, trace_, queries_, setup_seconds_);
    std::printf("tracing overhead (untraced %zu repetitions, traced 1):\n",
                plain.reps);
    for (std::size_t i = 1; i < untraced.size(); ++i) {
      std::printf("  %-20s untraced %14.4f traced %14.4f (%+.2f%%)\n",
                  untraced[i].name.c_str(), untraced[i].value,
                  traced[i].value,
                  100.0 * Ratio(traced[i].value - untraced[i].value,
                                untraced[i].value));
    }
    const double applied = static_cast<double>(r.applied);
    const auto delta = [&](const char* name) {
      return r.after[name] - r.before[name];
    };
    std::map<std::string, double> m;
    m["trace.update_overhead_pct"] =
        100.0 * Ratio(untraced[1].value - traced[1].value, untraced[1].value);
    m["trace.range_overhead_pct"] =
        100.0 * Ratio(traced[2].value - untraced[2].value, untraced[2].value);
    m["db.sharded.batch_p99_ms"] = 1e-3 * Quantile(Flatten(r.batch_us), 0.99);
    m["db.sharded.cpu_us_per_update"] = 1e6 * Ratio(r.cpu_seconds, applied);
    m["db.sharded.checkpoint_ms"] = Quantile(r.checkpoint_ms, 0.5);
    m["db.sharded.range_p99_us"] =
        Quantile(SlotMedians(r, queries_, QueryKind::kRange), 0.99);
    m["db.sharded.nearest_p99_us"] =
        Quantile(SlotMedians(r, queries_, QueryKind::kNearest), 0.99);
    m["db.sharded.interval_p99_us"] =
        Quantile(SlotMedians(r, queries_, QueryKind::kInterval), 0.99);
    const double page_bytes = static_cast<double>(
        StoreOptions(store_dir_).db.index_storage.page_size);
    const double index_bytes =
        w_.durable ? delta("mod.index.pages.writes") * page_bytes : 0.0;
    m["db.write_bytes_per_update"] =
        Ratio(delta("wal.bytes") + index_bytes + r.checkpoint_bytes, applied);
    m["db.mod.candidates_per_range"] =
        Ratio(r.range_candidates, static_cast<double>(r.range_queries));
    m["db.mod.answer_share"] = Ratio(r.range_answers, r.range_candidates);
    m["db.mod.nearest_candidates"] =
        Ratio(r.nearest_candidates, static_cast<double>(r.nearest_queries));
    m["db.mod.index_probes_per_nearest"] =
        Ratio(r.nearest_probes, static_cast<double>(r.nearest_queries));
    const double hits = delta("mod.index.pages.hits");
    const double misses = delta("mod.index.pages.misses");
    m["storage.hit_rate"] = Ratio(hits, hits + misses);
    m["storage.page_reads_per_update"] =
        Ratio(delta("mod.index.pages.reads"), applied);
    m["storage.evictions_per_update"] =
        Ratio(delta("mod.index.pages.evictions"), applied);
    m["storage.page_writes_per_update"] =
        Ratio(delta("mod.index.pages.writes"), applied);
    m["wal.bytes_per_update"] = Ratio(delta("wal.bytes"), applied);
    m["wal.syncs_per_1k_updates"] = 1e3 * Ratio(delta("wal.syncs"), applied);
    const db::RecoveryReport& rec = store_->recovery_report();
    m["recovery.records_replayed"] =
        static_cast<double>(rec.wal_records_replayed);
    m["recovery.objects_restored"] = static_cast<double>(rec.objects_restored);
    m["recovery.duration_ms"] = rec.duration_ms;
    m["group.member_skip_share"] =
        Ratio(delta("mod.group.member_skips"), applied);
    m["group.splits_per_1k_updates"] =
        1e3 * Ratio(delta("mod.group.splits"), applied);
    m["group.mean_size"] = Ratio(
        static_cast<double>(
            store_->metrics().GetGauge("mod.group.size")->value()),
        static_cast<double>(
            store_->metrics().GetGauge("mod.group.count")->value()));
    m["sub.evals_per_update"] = Ratio(delta("sub.evals"), applied);
    m["sub.evals_saved_share"] =
        Ratio(delta("sub.evals_saved"),
              delta("sub.evals") + delta("sub.evals_saved"));
    m["sub.events_per_update"] = Ratio(r.events, applied);
    m["sim.updates_per_vehicle_tick"] =
        Ratio(static_cast<double>(trace_.generated_updates),
              static_cast<double>(trace_.vehicle_ticks));
    m["sim.trace_gen_s"] = trace_.gen_seconds;
    ReplayLayers(m);
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = m.find(name);
      ledger_.Check(it != m.end(), std::string("no value for ") + name);
      metrics.push_back({name, it == m.end() ? 0.0 : it->second, unit, 0});
    }
  }
  std::printf("measured: %zu repetitions, %zu batches, %llu updates applied, "
              "%.3f s inside ApplyUpdateBatch; set-ups:",
              r.reps, r.batches, static_cast<unsigned long long>(r.applied),
              r.update_seconds);
  for (double v : setup_seconds_) std::printf(" %.4f", v);
  std::printf(" s\n");

  // ---- correctness, off the clock (the store sits at the segment's end)
  CheckPositions(trace_.batches.back().t);
  TearDown();
  CheckReference();
  std::printf("checked %zu range + %zu interval answers against the "
              "linear-scan reference, %zu vehicle positions\n",
              samples_[0].size(), samples_[2].size(), kPositionSamples);

  if (tracer_.on()) {
    const fs::path path = work_.parent_path() /
                          ("spans-" + work_.filename().string() + ".csv");
    ledger_.Check(tracer_.Write(path, epoch_), "writing " + path.string());
    std::printf("spans written to %s\n", path.string().c_str());
  }
  fs::remove_all(work_);
  PrintResult(ledger_, metrics);
  return ledger_.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace modb::perfbench

int main(int argc, char** argv) {
  using namespace modb::perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--work") {
      work = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: modb_perfbench --workload "
                 "city_ingest|dispatch_reads|durable_convoy --seed N "
                 "--seconds S --trace 0|1 [--work DIR]\n");
    return 2;
  }
  Bench bench(*w, seed,
              fs::path(work) / (workload + "-" + std::to_string(seed)),
              trace != 0);
  return bench.Run(seconds);
}
