#ifndef MODB_DB_QUERY_H_
#define MODB_DB_QUERY_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/position_attribute.h"
#include "core/types.h"
#include "core/uncertainty.h"
#include "geo/point.h"
#include "geo/route.h"

namespace modb::db {

/// How much of the fleet an answer covers. A single-shard (unsharded)
/// store always answers complete; the sharded store marks an answer
/// partial when quarantined shards were excluded from the fan-out. The
/// paper's asymmetry carries over to degraded reads: every id a healthy
/// shard proves MUST is still provably inside (Props 2–4 hold per
/// object), so MUST answers stay *sound* — they only lose completeness —
/// while MAY answers lose both directions and must be treated as a lower
/// bound on the candidate set.
struct QueryCompleteness {
  /// True when every shard contributed (the default, so answers from the
  /// unsharded store read as complete without any wiring).
  bool complete = true;
  /// Shards whose objects the answer cannot speak for, ascending.
  std::vector<std::size_t> excluded_shards;

  friend bool operator==(const QueryCompleteness&,
                         const QueryCompleteness&) = default;
};

/// Answer to "what is the current position of m?" (paper §1, §3.3): the
/// database position plus the bound B on the deviation — the actual
/// position is within `deviation_bound` route-distance of `position`,
/// somewhere inside `uncertainty` on `route`.
struct PositionAnswer {
  core::ObjectId id = core::kInvalidObjectId;
  core::Time query_time = 0.0;
  geo::RouteId route = geo::kInvalidRouteId;
  /// Route-distance of the database position.
  double route_distance = 0.0;
  /// 2-D database position returned to the user.
  geo::Point2 position;
  /// Bound on the slow (behind) deviation (propositions 2 / 4).
  double slow_bound = 0.0;
  /// Bound on the fast (ahead) deviation (propositions 3 / 4).
  double fast_bound = 0.0;
  /// Bound on the deviation in either direction (corollary 1 / prop. 4).
  double deviation_bound = 0.0;
  /// The stretch of route the object is guaranteed to be on.
  core::UncertaintyInterval uncertainty;
};

/// Answer to "retrieve the k objects nearest to a point at time t" (the
/// paper's trucking query — "the trucks currently within 1 mile of truck
/// ABT312" — generalised to k-nearest). Distances account for the
/// uncertainty interval: the object is guaranteed to be between
/// `min_possible_distance` and `max_possible_distance` from the query
/// point; ordering is by distance to the database position.
struct NearestAnswer {
  struct Item {
    core::ObjectId id = core::kInvalidObjectId;
    /// Euclidean distance from the query point to the database position.
    double db_distance = 0.0;
    /// Closest the object can possibly be (distance to the uncertainty
    /// interval).
    double min_possible_distance = 0.0;
    /// Farthest the object can possibly be.
    double max_possible_distance = 0.0;
  };
  /// The `items` order: ascending `db_distance`, exact ties (two objects
  /// at one database position) by ascending `id`, so the answer does not
  /// depend on candidate or shard order.
  static bool ItemOrder(const Item& a, const Item& b) {
    if (a.db_distance != b.db_distance) return a.db_distance < b.db_distance;
    return a.id < b.id;
  }

  core::Time query_time = 0.0;
  /// Up to k items, in `ItemOrder`.
  std::vector<Item> items;
  /// Total candidates refined across every expanding index probe (the
  /// work the query did, not the final probe's yield).
  std::size_t candidates_examined = 0;
  /// Fleet coverage; partial when quarantined shards were excluded (a
  /// nearer object could live on an excluded shard).
  QueryCompleteness completeness;
};

/// Answer to "retrieve the objects that are inside polygon G at some time
/// within [t1, t2]" — the time-window query the 3-D time-space index
/// supports natively (the query region is G's bounding box extruded over
/// the window). `may` is exact for objects whose uncertainty interval
/// sweeps into G at any instant of the window; `must_at_some_time` is the
/// subset provably inside at one of the sampled instants (conservative).
struct IntervalRangeAnswer {
  core::Time window_start = 0.0;
  core::Time window_end = 0.0;
  std::vector<core::ObjectId> may;
  std::vector<core::ObjectId> must_at_some_time;
  std::size_t candidates_examined = 0;
  /// Fleet coverage; see `QueryCompleteness`.
  QueryCompleteness completeness;

  /// Sorts `may` and `must_at_some_time` by id and drops repeated ids.
  void SortById() {
    for (std::vector<core::ObjectId>* ids : {&may, &must_at_some_time}) {
      std::sort(ids->begin(), ids->end());
      ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
    }
  }
};

/// Answer to "retrieve the objects which are inside polygon G at time t0"
/// (paper §4): objects that must be in G, and the additional objects that
/// may be in G (theorem 5 / 6 semantics). `must` is a subset of the
/// conceptual answer set; `must + may` is a superset.
struct RangeAnswer {
  core::Time query_time = 0.0;
  std::vector<core::ObjectId> must;
  std::vector<core::ObjectId> may;
  /// For each entry of `may` (parallel array): the probability that the
  /// object actually is inside G, under a position uniform over its
  /// uncertainty interval (strictly in (0, 1) for MAY objects; MUST
  /// objects are 1 and omitted-outside objects 0 by construction).
  std::vector<double> may_probability;
  /// Candidates the index produced (for selectivity/benchmark accounting).
  std::size_t candidates_examined = 0;
  /// Fleet coverage; see `QueryCompleteness`. MUST stays sound when
  /// partial; MAY is incomplete.
  QueryCompleteness completeness;

  /// Sorts `must` and `may` by id and drops repeated ids, keeping
  /// `may_probability` aligned with `may` (a repeated MAY id keeps its
  /// lowest probability).
  void SortById() {
    std::sort(must.begin(), must.end());
    must.erase(std::unique(must.begin(), must.end()), must.end());
    std::vector<std::pair<core::ObjectId, double>> rows;
    rows.reserve(may.size());
    for (std::size_t i = 0; i < may.size(); ++i) {
      rows.emplace_back(may[i], may_probability[i]);
    }
    std::sort(rows.begin(), rows.end());
    may.clear();
    may_probability.clear();
    for (const auto& [id, probability] : rows) {
      if (!may.empty() && may.back() == id) continue;
      may.push_back(id);
      may_probability.push_back(probability);
    }
  }
};

}  // namespace modb::db

#endif  // MODB_DB_QUERY_H_
