#ifndef MODB_DB_SUBSCRIPTION_ENGINE_H_
#define MODB_DB_SUBSCRIPTION_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/position_attribute.h"
#include "core/refiner.h"
#include "core/types.h"
#include "core/uncertainty.h"
#include "geo/polygon.h"
#include "geo/route_network.h"
#include "util/metrics.h"
#include "util/status.h"

namespace modb::db {

/// One accepted attribute transition on the database's delta stream: the
/// motion model of `id` changed from `before` to `after`. A null `before`
/// is an insert, a null `after` an erase (never both null).
///
/// Unlike `index::IndexDelta` — which carries only each object's *final*
/// per-batch attribute because the index serves nothing but the current
/// model — the delta stream is per record: a batch that updates the same
/// object twice produces two transitions, chained through the intermediate
/// attribute, exactly as sequential ingest would. Continuous queries need
/// that chain (a mid-batch excursion through a region is an enter+leave
/// pair, not silence), so the stream must not be collapsed to the index
/// stage's one row per object.
struct AttributeDelta {
  /// Input slot of the record within the originating call (0 for
  /// single-record mutations). The sharded layer rewrites shard-local
  /// ordinals back to global input slots before merging event streams.
  std::size_t ordinal = 0;
  core::ObjectId id = core::kInvalidObjectId;
  const core::PositionAttribute* before = nullptr;  // null = insert
  const core::PositionAttribute* after = nullptr;   // null = erase
};

using SubscriptionId = std::uint64_t;

/// Which membership transitions a subscriber wants to hear about.
///   kMay  — changes of "may be in G" (outside <-> may-or-must);
///   kMust — changes of "must be in G";
///   kAll  — every relation change, including MAY <-> MUST upgrades.
enum class SubscriptionMode { kMay, kMust, kAll };

std::string_view SubscriptionModeName(SubscriptionMode mode);

/// A standing MAY/MUST region query: "notify me when an object's relation
/// to `region` at the subscribed time (or within the subscribed window)
/// changes". The same region/when shapes as the ad-hoc `SELECT` forms.
struct SubscriptionSpec {
  geo::Polygon region;
  std::string region_text;      // original spelling, for echoing
  bool windowed = false;
  core::Time time = 0.0;        // AT form, or window start
  core::Time window_end = 0.0;  // DURING form: [time, window_end]
  SubscriptionMode mode = SubscriptionMode::kMay;
};

/// A membership-transition event: object `object`'s relation to
/// subscription `subscription`'s region changed from `from` to `to` when
/// the motion model starting at `at` was committed.
struct SubscriptionEvent {
  SubscriptionId subscription = 0;
  core::ObjectId object = core::kInvalidObjectId;
  core::RegionRelation from = core::RegionRelation::kOutside;
  core::RegionRelation to = core::RegionRelation::kOutside;
  /// Start time of the attribute version that caused the transition (the
  /// commit "time" in the paper's instantaneous-update model).
  core::Time at = 0.0;
  /// Input slot of the causing record within its batch. Plumbing for the
  /// sharded merge; not part of the event's identity (batched and
  /// sequential ingest produce the same events with different ordinals).
  std::size_t ordinal = 0;

  /// Rendering without the ordinal — byte-comparable across ingest shapes.
  std::string ToString() const;
};

/// Registry of standing MAY/MUST region queries, maintained incrementally
/// from the database's delta stream (the update-stream architecture of
/// MOIST, Jiang et al.). Subscribers receive MUST/MAY *transition* events
/// (enter / leave / upgrade), not full result sets.
///
/// Matching is a join in route space (paper §2: a position is a distance
/// along a route). At `Subscribe` the region's bounding box is clipped once
/// against every route into the route-distance intervals where that route
/// lies in it, with the clip and slack `index::RouteBandIndex`'s probe
/// uses; an interval that touches a route end stays open past it, because
/// uncertainty intervals are clamped to the ends. The intervals go into a
/// per-route table whose 16-byte entries (the interval as floats rounded
/// outward, and a pointer) point straight at their subscription. A delta
/// record tests the band of its before and after models — [s0 − Kb,
/// s0 + Kf] moving at the signed speed over [start, start + horizon],
/// `core::MaxBandReach` — against only its own route's entries, over each
/// subscription's window, and re-evaluates the subscriptions it meets. A
/// delta on a route the table has not clipped yet (one appended to the
/// network since the last `Subscribe` or `Unsubscribe`) meets every live
/// subscription, the naive superset; the next `Subscribe` or `Unsubscribe`
/// clips it. `Unsubscribe` clips the region again to find the routes that
/// hold its entries.
///
/// Partitions: the registry (the specs and the route table) is kept once;
/// what matching writes — tracked relations, events, scratch, totals —
/// lives in one partition per store feeding the engine (shard i of the
/// sharded store matches into partition i, an unsharded store into 0).
///
/// Determinism: the relation of an object to a subscription is a pure
/// function of (current attribute, subscription spec) — `EvaluatePair`
/// below — gated to the subscribed window clipped against
/// [start, start + horizon]. The horizon is the attached store's
/// `oplane_horizon` (`ModDatabase::AttachSubscriptions` sets it), the
/// visibility horizon of its indexes, so a standing query sees exactly
/// the models `QueryRange` sees. Because no global clock is involved, the
/// event stream is byte-identical between the join and naive-rescan modes
/// and between batched and sequential ingest: the band covers every
/// uncertainty interval the gated evaluation can classify, so the join
/// only skips pairs whose relation is Outside before and after.
///
/// Windowed subscriptions sample their MUST-at-some-instant half every
/// 1.0 time units plus the window edges — `QueryRangeInterval`'s default
/// step.
///
/// Thread-compatibility: not internally synchronised. A partition's calls
/// need the exclusion of the store feeding it; different partitions may
/// match concurrently, but not while `Subscribe` or `Unsubscribe` rewrites
/// the registry (the sharded store holds every shard's lock for those).
class SubscriptionEngine final {
 public:
  struct Options {
    /// Evaluate every subscription against every record instead of the
    /// route-space join — the E17 baseline. Event streams are identical.
    bool naive_rescan = false;
  };

  /// `network` must outlive the engine. `partitions` (0 is promoted to 1)
  /// is the number of stores that match into it.
  SubscriptionEngine(const geo::RouteNetwork* network, Options options,
                     std::size_t partitions = 1);
  explicit SubscriptionEngine(const geo::RouteNetwork* network)
      : SubscriptionEngine(network, Options{}) {}

  SubscriptionEngine(const SubscriptionEngine&) = delete;
  SubscriptionEngine& operator=(const SubscriptionEngine&) = delete;

  /// Registers a standing query. AlreadyExists for a duplicate id,
  /// InvalidArgument for a region with fewer than three vertices or a NaN
  /// time. No catch-up scan is run: membership state starts at Outside for
  /// every object, so the first matching delta after Subscribe reports the
  /// enter transition. (Callers that need the current result set run one
  /// ad-hoc query.)
  util::Status Subscribe(SubscriptionId id, SubscriptionSpec spec);

  /// Drops a standing query (NotFound when absent) and its tracked state.
  util::Status Unsubscribe(SubscriptionId id);

  bool contains(SubscriptionId id) const { return subs_.contains(id); }
  std::size_t num_subscriptions() const { return subs_.size(); }
  std::size_t num_partitions() const { return partitions_.size(); }

  /// Delta-stream hook, called by `ModDatabase` after every committed
  /// mutation (the pointed-to attributes live only for the call; `deltas`
  /// arrive in ascending ordinal): re-evaluates affected subscriptions
  /// record by record and buffers transition events in `partition`.
  /// Within one record, events are emitted in ascending subscription id;
  /// across records, in record (ordinal) order.
  void OnDeltaBatch(std::span<const AttributeDelta> deltas,
                    std::size_t partition = 0);

  /// Drains `partition`'s buffered events (oldest first).
  std::vector<SubscriptionEvent> TakeEvents(std::size_t partition = 0);
  std::size_t num_pending_events(std::size_t partition = 0) const {
    return partitions_[partition].events.size();
  }

  /// Drops `partition`'s tracked per-object state (specs stay
  /// registered). Step one of re-attaching a partition to a recovered
  /// store: forget the dead store's memberships, then `PrimeObject` each
  /// recovered object.
  void ResetTracking(std::size_t partition = 0);

  /// Silently sets the tracked relation of `id` under every subscription
  /// from `attr` in `partition` — no events are emitted. It evaluates only
  /// the subscriptions the route table matches; every other one is
  /// Outside. After `ResetTracking` this reprimes the partition after a
  /// shard recovery swap: the recovered store holds exactly the
  /// durably-committed attributes, so priming from them leaves the
  /// partition in the same state it had after those commits, and the
  /// post-recovery event stream continues as if the crash never happened
  /// (events are a pure function of each object's update sequence).
  void PrimeObject(core::ObjectId id, const core::PositionAttribute& attr,
                   std::size_t partition = 0);

  /// Registers counters `<prefix>evals` (pair evaluations run),
  /// `<prefix>evals_saved` (evaluations the route-space join skipped vs. a
  /// naive rescan), `<prefix>events_emitted`, and the
  /// `<prefix>match_latency_us` histogram (one OnDeltaBatch call).
  /// nullptr detaches. Every partition records into the same instruments.
  void SetMetrics(util::MetricsRegistry* registry,
                  const std::string& prefix = "sub.");

  /// Lifetime totals over every partition, also kept locally so tests
  /// need no registry. Read them only while no partition is matching.
  std::uint64_t evals() const { return Total(&Partition::evals); }
  std::uint64_t evals_saved() const { return Total(&Partition::evals_saved); }
  std::uint64_t events_emitted() const {
    return Total(&Partition::events_emitted);
  }

  /// The horizon gate: a model is visible over [start, start + horizon].
  /// The attached store's `oplane_horizon`; 120 (that option's default)
  /// before the engine is first attached.
  core::Duration horizon() const { return horizon_; }

  /// The tracked relation of `object` under subscription `id` in any
  /// partition (kOutside for untracked pairs or unknown subscriptions).
  /// For tests.
  core::RegionRelation RelationOf(SubscriptionId id,
                                  core::ObjectId object) const;

 private:
  using SubscriptionMap = std::map<SubscriptionId, SubscriptionSpec>;
  using Node = SubscriptionMap::value_type;  // map nodes never move

  /// One route-distance interval where a route lies in a subscription's
  /// region bounding box: [lo, hi] as floats rounded outward (±∞ past a
  /// route end), and the subscription.
  struct Entry {
    float lo;
    float hi;
    const Node* sub;
  };
  static_assert(sizeof(Entry) <= 16, "the table's memory budget");

  /// An object's tracked relation to one subscription.
  struct Tracked {
    SubscriptionId subscription;
    core::RegionRelation relation;
  };
  using TrackedRows = std::vector<Tracked>;  // ascending subscription id

  /// What matching writes for one store. Aligned so that two partitions
  /// matching on different threads never share a cache line.
  struct alignas(64) Partition {
    // Per object, its MAY/MUST relations (absence means kOutside); a row
    // per object takes less than half the memory of a node per pair.
    std::unordered_map<core::ObjectId, TrackedRows> tracked;
    // The subscriptions `Match` found, sorted by id.
    std::vector<std::pair<SubscriptionId, const Node*>> matched;
    std::vector<SubscriptionEvent> events;
    core::Refiner refiner;  // EvaluatePair's scratch, reused across pairs
    std::uint64_t evals = 0;
    std::uint64_t evals_saved = 0;
    std::uint64_t events_emitted = 0;
  };

  /// `field` summed over every partition.
  std::uint64_t Total(std::uint64_t Partition::*field) const;
  /// Clips `node`'s region bounding box against routes
  /// [first, routes_.size()) and appends its entries there.
  void Clip(const Node& node, std::size_t first);
  /// Clips every live subscription against the routes the network has
  /// gained since the table last grew.
  void CoverNewRoutes();
  /// Appends to `part.matched` the (id, node) of every subscription whose
  /// entries on `attr`'s route meet `attr`'s band within the
  /// subscription's window — every live one on a route the table has not
  /// clipped.
  void MatchBand(Partition& part, const core::PositionAttribute& attr) const;
  /// `MatchBand` of `before` and `after` (either may be null), then sorted
  /// by subscription id and deduplicated, into `part.matched`.
  void Match(Partition& part, const core::PositionAttribute* before,
             const core::PositionAttribute* after) const;

  /// The pure relation function (see class comment). `route` is the
  /// resolved route of `attr`.
  core::RegionRelation EvaluatePair(const SubscriptionSpec& spec,
                                    const core::PositionAttribute& attr,
                                    const geo::Route& route,
                                    core::Refiner& refiner) const;

  /// Re-evaluates one (subscription, record) pair: updates the record's
  /// object's tracked `rows` in `part` and buffers an event when the
  /// transition passes the mode filter.
  void EvaluateOne(Partition& part, TrackedRows& rows, const Node& node,
                   const AttributeDelta& delta, const geo::Route* route_after);

  // Sets `horizon_` to the store's `oplane_horizon` on attach.
  friend class ModDatabase;

  const geo::RouteNetwork* network_;
  Options options_;
  core::Duration horizon_ = 120.0;
  // The registry: written only by Subscribe / Unsubscribe.
  SubscriptionMap subs_;  // ordered: deterministic
  // The route table: routes_[r] holds route r's entries.
  std::vector<std::vector<Entry>> routes_;
  std::vector<Partition> partitions_;

  // Optional instruments (see SetMetrics); non-owning, may be null.
  util::Counter* evals_counter_ = nullptr;
  util::Counter* evals_saved_counter_ = nullptr;
  util::Counter* events_counter_ = nullptr;
  util::LatencyHistogram* match_latency_ = nullptr;
};

}  // namespace modb::db

#endif  // MODB_DB_SUBSCRIPTION_ENGINE_H_
