#include "db/subscription_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <utility>

#include "core/bounds.h"

namespace modb::db {

namespace {

/// Sampling step of the MUST-at-some-instant half of windowed
/// subscriptions: `QueryRangeInterval`'s default step.
constexpr core::Duration kMustSampleStep = 1.0;

/// Relative slack around the region clip, so that rounding in the clip and
/// in the band arithmetic can only widen a match: the slack
/// `index::RouteBandIndex`'s probe adds around the same clip.
constexpr double kSlack = 1e-9;

constexpr float kInf = std::numeric_limits<float>::infinity();

/// `v` rounded down to a float; −∞ below the float range.
float FloatBelow(double v) {
  constexpr float kMax = std::numeric_limits<float>::max();
  if (v < -kMax) return -kInf;
  if (v > kMax) return kMax;
  const float f = static_cast<float>(v);
  return f > v ? std::nextafter(f, -kInf) : f;
}

/// `v` rounded up to a float; +∞ above the float range.
float FloatAbove(double v) { return -FloatBelow(-v); }

/// The box `Clip` clips a region against: its bounding box, widened by
/// the slack.
geo::Box2 ClipBox(const geo::Polygon& region) {
  geo::Box2 box = region.BoundingBox();
  const double scale = std::max({std::abs(box.min.x), std::abs(box.min.y),
                                 std::abs(box.max.x), std::abs(box.max.y)});
  box.Inflate(kSlack * (1.0 + scale));
  return box;
}

/// Whether a `from` -> `to` relation change is visible under `mode`.
bool ModeCares(SubscriptionMode mode, core::RegionRelation from,
               core::RegionRelation to) {
  switch (mode) {
    case SubscriptionMode::kAll:
      return from != to;
    case SubscriptionMode::kMust:
      return (from == core::RegionRelation::kMustBeIn) !=
             (to == core::RegionRelation::kMustBeIn);
    case SubscriptionMode::kMay:
      return (from != core::RegionRelation::kOutside) !=
             (to != core::RegionRelation::kOutside);
  }
  return false;
}

}  // namespace

std::string_view SubscriptionModeName(SubscriptionMode mode) {
  switch (mode) {
    case SubscriptionMode::kMay:
      return "MAY";
    case SubscriptionMode::kMust:
      return "MUST";
    case SubscriptionMode::kAll:
      return "ALL";
  }
  return "unknown";
}

std::string SubscriptionEvent::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "sub %llu: object %llu %s->%s at t=%g",
                static_cast<unsigned long long>(subscription),
                static_cast<unsigned long long>(object),
                std::string(core::RegionRelationName(from)).c_str(),
                std::string(core::RegionRelationName(to)).c_str(), at);
  return buf;
}

SubscriptionEngine::SubscriptionEngine(const geo::RouteNetwork* network,
                                       Options options, std::size_t partitions)
    : network_(network),
      options_(options),
      partitions_(std::max<std::size_t>(partitions, 1)) {}

void SubscriptionEngine::SetMetrics(util::MetricsRegistry* registry,
                                    const std::string& prefix) {
  if (registry == nullptr) {
    evals_counter_ = nullptr;
    evals_saved_counter_ = nullptr;
    events_counter_ = nullptr;
    match_latency_ = nullptr;
    return;
  }
  evals_counter_ = registry->GetCounter(prefix + "evals");
  evals_saved_counter_ = registry->GetCounter(prefix + "evals_saved");
  events_counter_ = registry->GetCounter(prefix + "events_emitted");
  match_latency_ = registry->GetLatency(prefix + "match_latency_us");
}

util::Status SubscriptionEngine::Subscribe(SubscriptionId id,
                                           SubscriptionSpec spec) {
  if (subs_.contains(id)) {
    return util::Status::AlreadyExists("subscription " + std::to_string(id));
  }
  if (!spec.region.Valid()) {
    return util::Status::InvalidArgument("subscription region is degenerate");
  }
  if (std::isnan(spec.time) || (spec.windowed && std::isnan(spec.window_end))) {
    return util::Status::InvalidArgument("subscription time is not a number");
  }
  if (spec.windowed && spec.window_end < spec.time) {
    std::swap(spec.time, spec.window_end);
  }
  // Bring the table up to the network first, so the clip below covers
  // every route once.
  CoverNewRoutes();
  Clip(*subs_.emplace(id, std::move(spec)).first, 0);
  return util::Status::Ok();
}

util::Status SubscriptionEngine::Unsubscribe(SubscriptionId id) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) {
    return util::Status::NotFound("subscription " + std::to_string(id));
  }
  // The same clip finds the same routes: only they hold its entries.
  const Node* node = &*it;
  const geo::Box2 box = ClipBox(it->second.region);
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    if (network_->route(static_cast<geo::RouteId>(r))
            .shape()
            .IntervalsInBox(box)
            .empty()) {
      continue;
    }
    std::erase_if(routes_[r], [node](const Entry& e) { return e.sub == node; });
  }
  for (Partition& part : partitions_) {
    for (auto object = part.tracked.begin(); object != part.tracked.end();) {
      std::erase_if(object->second,
                    [id](const Tracked& t) { return t.subscription == id; });
      object = object->second.empty() ? part.tracked.erase(object)
                                      : std::next(object);
    }
  }
  subs_.erase(it);
  CoverNewRoutes();  // as Subscribe does: matching never grows the table
  return util::Status::Ok();
}

void SubscriptionEngine::Clip(const Node& node, std::size_t first) {
  const geo::Box2 box = ClipBox(node.second.region);
  for (std::size_t r = first; r < routes_.size(); ++r) {
    const geo::Polyline& shape =
        network_->route(static_cast<geo::RouteId>(r)).shape();
    const double length = shape.Length();
    const double slack = kSlack * (1.0 + length);
    for (const auto& [a, b] : shape.IntervalsInBox(box)) {
      // The uncertainty interval is clamped to the route, so a band past
      // an end counts as being at that end.
      routes_[r].push_back({a <= 0.0 ? -kInf : FloatBelow(a - slack),
                            b >= length ? kInf : FloatAbove(b + slack),
                            &node});
    }
  }
}

void SubscriptionEngine::CoverNewRoutes() {
  const std::size_t first = routes_.size();
  if (network_->size() <= first) return;
  routes_.resize(network_->size());
  for (const Node& node : subs_) Clip(node, first);
}

void SubscriptionEngine::MatchBand(Partition& part,
                                   const core::PositionAttribute& attr) const {
  if (attr.route >= routes_.size()) {
    // Not clipped yet: matching only reads the table, so it falls back to
    // every live subscription, which is what the naive rescan evaluates.
    for (const Node& node : subs_) part.matched.emplace_back(node.first, &node);
    return;
  }
  // The band over EvaluatePair's gate [ts, te]: every uncertainty interval
  // it can classify lies in [lo, hi] + w·(t − ts).
  const core::Time ts = attr.start_time;
  const core::Time te = ts + horizon_;
  const core::BandReach reach = core::MaxBandReach(attr, te - ts);
  const double w = core::DirectionSign(attr.direction) * attr.speed;
  const double lo = attr.start_route_distance - reach.behind;
  const double hi = attr.start_route_distance + reach.ahead;
  // Over the whole gate the band moves by at most w·(te − ts): a first
  // test that needs no window.
  const double drift = w * (te - ts);
  const double hull_lo = lo + std::min(0.0, drift);
  const double hull_hi = hi + std::max(0.0, drift);
  for (const Entry& e : routes_[attr.route]) {
    if (hull_lo > e.hi || hull_hi < e.lo) continue;
    const SubscriptionSpec& spec = e.sub->second;
    // The window clipped to the gate, exactly as EvaluatePair clips it.
    const core::Time u1 = std::max(spec.time, ts);
    const core::Time u2 =
        std::min(spec.windowed ? spec.window_end : spec.time, te);
    if (u1 > u2) continue;
    const double a = w * (u1 - ts);
    const double b = w * (u2 - ts);
    if (lo + std::min(a, b) > e.hi || hi + std::max(a, b) < e.lo) continue;
    part.matched.emplace_back(e.sub->first, e.sub);
  }
}

void SubscriptionEngine::Match(Partition& part,
                               const core::PositionAttribute* before,
                               const core::PositionAttribute* after) const {
  part.matched.clear();
  if (before != nullptr) MatchBand(part, *before);
  if (after != nullptr) MatchBand(part, *after);
  std::sort(part.matched.begin(), part.matched.end());
  part.matched.erase(std::unique(part.matched.begin(), part.matched.end()),
                     part.matched.end());
}

core::RegionRelation SubscriptionEngine::RelationOf(
    SubscriptionId id, core::ObjectId object) const {
  for (const Partition& part : partitions_) {
    const auto rows = part.tracked.find(object);
    if (rows == part.tracked.end()) continue;
    for (const Tracked& t : rows->second) {
      if (t.subscription == id) return t.relation;
    }
  }
  return core::RegionRelation::kOutside;
}

core::RegionRelation SubscriptionEngine::EvaluatePair(
    const SubscriptionSpec& spec, const core::PositionAttribute& attr,
    const geo::Route& route, core::Refiner& refiner) const {
  // Clip the subscribed time(s) against the attribute's visibility window
  // [start, start + horizon] — the same horizon gate the database's
  // indexes implement, so standing queries match what ad-hoc queries see.
  const core::Time start = attr.start_time;
  const core::Time hend = start + horizon_;
  const core::Time t1 = spec.time;
  const core::Time t2 = spec.windowed ? spec.window_end : spec.time;
  const core::Time w1 = std::max(t1, start);
  const core::Time w2 = std::min(t2, hend);
  if (w1 > w2) return core::RegionRelation::kOutside;

  if (!spec.windowed) {
    // AT form: exact classification at the (clipped) instant.
    return refiner.Classify(spec.region, route.shape(),
                            core::ComputeUncertainty(attr, route, w1));
  }
  // DURING form, as `QueryRangeInterval` evaluates it.
  return refiner.ClassifyDuring(spec.region, attr, route, w1, w2,
                                kMustSampleStep);
}

void SubscriptionEngine::EvaluateOne(Partition& part, TrackedRows& rows,
                                     const Node& node,
                                     const AttributeDelta& delta,
                                     const geo::Route* route_after) {
  const SubscriptionSpec& spec = node.second;
  core::RegionRelation to = core::RegionRelation::kOutside;
  if (delta.after != nullptr && route_after != nullptr) {
    to = EvaluatePair(spec, *delta.after, *route_after, part.refiner);
  }
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), node.first,
      [](const Tracked& t, SubscriptionId id) { return t.subscription < id; });
  const bool tracked = it != rows.end() && it->subscription == node.first;
  const core::RegionRelation from =
      tracked ? it->relation : core::RegionRelation::kOutside;
  if (to == core::RegionRelation::kOutside) {
    if (tracked) rows.erase(it);
  } else if (tracked) {
    it->relation = to;
  } else {
    rows.insert(it, {node.first, to});
  }
  if (from == to || !ModeCares(spec.mode, from, to)) return;
  SubscriptionEvent event;
  event.subscription = node.first;
  event.object = delta.id;
  event.from = from;
  event.to = to;
  event.at = delta.after != nullptr ? delta.after->start_time
                                    : delta.before->start_time;
  event.ordinal = delta.ordinal;
  part.events.push_back(std::move(event));
  ++part.events_emitted;
  if (events_counter_ != nullptr) events_counter_->Increment();
}

void SubscriptionEngine::OnDeltaBatch(std::span<const AttributeDelta> deltas,
                                      std::size_t partition) {
  if (subs_.empty() || deltas.empty()) return;
  util::ScopedLatencyTimer timer(match_latency_);
  Partition& part = partitions_[partition];

  for (const AttributeDelta& delta : deltas) {
    // The naive baseline evaluates every subscription. The route-space
    // join evaluates those the bands of the before and after models meet
    // on their routes: one missed here has relation Outside under both
    // models — no transition to report.
    std::size_t evaluated = subs_.size();
    if (!options_.naive_rescan) {
      Match(part, delta.before, delta.after);
      evaluated = part.matched.size();
      part.evals_saved += subs_.size() - evaluated;
      if (evals_saved_counter_ != nullptr) {
        evals_saved_counter_->Increment(subs_.size() - evaluated);
      }
    }
    part.evals += evaluated;
    if (evals_counter_ != nullptr) evals_counter_->Increment(evaluated);
    if (evaluated == 0) continue;

    // Resolve the after-route once per record: the join can visit many
    // subscriptions and the naive baseline visits all of them.
    const geo::Route* route_after = nullptr;
    if (delta.after != nullptr) {
      if (const auto route = network_->FindRoute(delta.after->route);
          route.ok()) {
        route_after = *route;
      }
    }
    TrackedRows& rows = part.tracked[delta.id];
    if (options_.naive_rescan) {
      for (const Node& node : subs_) {
        EvaluateOne(part, rows, node, delta, route_after);
      }
    } else {
      for (const auto& [id, node] : part.matched) {
        EvaluateOne(part, rows, *node, delta, route_after);
      }
    }
    if (rows.empty()) part.tracked.erase(delta.id);
  }
}

void SubscriptionEngine::ResetTracking(std::size_t partition) {
  partitions_[partition].tracked.clear();
}

void SubscriptionEngine::PrimeObject(core::ObjectId id,
                                     const core::PositionAttribute& attr,
                                     std::size_t partition) {
  if (subs_.empty()) return;
  const geo::Route* route = nullptr;
  if (const auto r = network_->FindRoute(attr.route); r.ok()) route = *r;
  if (route == nullptr) return;
  Partition& part = partitions_[partition];
  Match(part, nullptr, &attr);
  TrackedRows rows;  // `matched` is sorted by id, so `rows` is too
  for (const auto& [sid, node] : part.matched) {
    const core::RegionRelation rel =
        EvaluatePair(node->second, attr, *route, part.refiner);
    if (rel != core::RegionRelation::kOutside) rows.push_back({sid, rel});
  }
  if (rows.empty()) {
    part.tracked.erase(id);
  } else {
    part.tracked[id] = std::move(rows);
  }
}

std::vector<SubscriptionEvent> SubscriptionEngine::TakeEvents(
    std::size_t partition) {
  return std::exchange(partitions_[partition].events, {});
}

std::uint64_t SubscriptionEngine::Total(
    std::uint64_t Partition::*field) const {
  std::uint64_t total = 0;
  for (const Partition& part : partitions_) total += part.*field;
  return total;
}

}  // namespace modb::db
