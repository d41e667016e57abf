#include "db/subscription_engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace modb::db {

namespace {

/// Sampling step of the MUST-at-some-instant half of windowed
/// subscriptions: `QueryRangeInterval`'s default step.
constexpr core::Duration kMustSampleStep = 1.0;

/// Appends a conservative 3-D cover of every (position, time) the motion
/// model `attr` can occupy within `oplane.horizon` of its start time: the
/// o-plane slab boxes of §4.1.1, one per time slab. The spatial join
/// intersects these against the subscription boxes to find the standing
/// queries a delta can possibly affect. An unknown route appends nothing
/// (the database never commits such an attribute).
void AppendDirtyBoxes(const core::PositionAttribute& attr,
                      const geo::RouteNetwork& network,
                      const index::OPlaneOptions& oplane,
                      std::vector<geo::Box3>* out) {
  const auto route = network.FindRoute(attr.route);
  if (!route.ok()) return;
  std::vector<geo::Box3> boxes =
      index::BuildOPlaneBoxes(attr, **route, oplane);
  out->insert(out->end(), boxes.begin(), boxes.end());
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
                                       Options options)
    : network_(network), options_(options) {}

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
  if (spec.windowed && spec.window_end < spec.time) {
    std::swap(spec.time, spec.window_end);
  }
  Subscription sub;
  const core::Time t1 = spec.time;
  const core::Time t2 = spec.windowed ? spec.window_end : spec.time;
  sub.box = geo::Box3(spec.region.BoundingBox(), t1, t2);
  sub.spec = std::move(spec);
  const geo::Box3 box = sub.box;
  subs_.emplace(id, std::move(sub));
  sub_index_.Insert(box, id);
  return util::Status::Ok();
}

util::Status SubscriptionEngine::Unsubscribe(SubscriptionId id) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) {
    return util::Status::NotFound("subscription " + std::to_string(id));
  }
  sub_index_.Remove(it->second.box, id);
  subs_.erase(it);
  return util::Status::Ok();
}

core::RegionRelation SubscriptionEngine::RelationOf(
    SubscriptionId id, core::ObjectId object) const {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return core::RegionRelation::kOutside;
  const auto rel = it->second.state.find(object);
  return rel == it->second.state.end() ? core::RegionRelation::kOutside
                                       : rel->second;
}

core::RegionRelation SubscriptionEngine::EvaluatePair(
    const Subscription& sub, const core::PositionAttribute& attr,
    const geo::Route& route) {
  // Clip the subscribed time(s) against the attribute's visibility window
  // [start, start + horizon] — the same horizon gate the o-plane indexes
  // implement, so standing queries match what ad-hoc queries can see.
  const core::Time start = attr.start_time;
  const core::Time hend = start + options_.matcher.horizon;
  const core::Time t1 = sub.spec.time;
  const core::Time t2 = sub.spec.windowed ? sub.spec.window_end : sub.spec.time;
  const core::Time w1 = std::max(t1, start);
  const core::Time w2 = std::min(t2, hend);
  if (w1 > w2) return core::RegionRelation::kOutside;

  if (!sub.spec.windowed) {
    // AT form: exact classification at the (clipped) instant.
    return refiner_.Classify(sub.spec.region, route.shape(),
                             core::ComputeUncertainty(attr, route, w1));
  }
  // DURING form, as `QueryRangeInterval` evaluates it.
  return refiner_.ClassifyDuring(sub.spec.region, attr, route, w1, w2,
                                 kMustSampleStep);
}

void SubscriptionEngine::EvaluateOne(SubscriptionId id, Subscription& sub,
                                     const AttributeDelta& delta,
                                     const geo::Route* route_after) {
  core::RegionRelation to = core::RegionRelation::kOutside;
  if (delta.after != nullptr && route_after != nullptr) {
    to = EvaluatePair(sub, *delta.after, *route_after);
  }
  const auto it = sub.state.find(delta.id);
  const core::RegionRelation from =
      it == sub.state.end() ? core::RegionRelation::kOutside : it->second;
  if (to == core::RegionRelation::kOutside) {
    if (it != sub.state.end()) sub.state.erase(it);
  } else if (it != sub.state.end()) {
    it->second = to;
  } else {
    sub.state.emplace(delta.id, to);
  }
  if (from == to || !ModeCares(sub.spec.mode, from, to)) return;
  SubscriptionEvent event;
  event.subscription = id;
  event.object = delta.id;
  event.from = from;
  event.to = to;
  event.at = delta.after != nullptr ? delta.after->start_time
                                    : delta.before->start_time;
  event.ordinal = delta.ordinal;
  events_.push_back(std::move(event));
  ++events_emitted_;
  if (events_counter_ != nullptr) events_counter_->Increment();
}

void SubscriptionEngine::OnDeltaBatch(std::span<const AttributeDelta> deltas) {
  if (subs_.empty() || deltas.empty()) return;
  util::ScopedLatencyTimer timer(match_latency_);

  std::vector<geo::Box3> dirty;
  std::vector<SubscriptionId> matched;
  for (const AttributeDelta& delta : deltas) {
    // Resolve the after-route once per record: the join can visit many
    // subscriptions and the naive baseline visits all of them.
    const geo::Route* route_after = nullptr;
    if (delta.after != nullptr) {
      if (const auto route = network_->FindRoute(delta.after->route);
          route.ok()) {
        route_after = *route;
      }
    }
    if (options_.naive_rescan) {
      for (auto& [id, sub] : subs_) {
        EvaluateOne(id, sub, delta, route_after);
      }
      evals_ += subs_.size();
      if (evals_counter_ != nullptr) evals_counter_->Increment(subs_.size());
      continue;
    }

    // Spatial join: the record's o-plane dirty boxes (before and after
    // model) against the subscription tree. A subscription missed here has
    // relation Outside under both models — no transition to report.
    dirty.clear();
    if (delta.before != nullptr) {
      AppendDirtyBoxes(*delta.before, *network_, options_.matcher, &dirty);
    }
    if (delta.after != nullptr) {
      AppendDirtyBoxes(*delta.after, *network_, options_.matcher, &dirty);
    }
    matched.clear();
    for (const geo::Box3& box : dirty) {
      sub_index_.Search(box, [&](const geo::Box3&, index::RTree3::Value v) {
        matched.push_back(v);
      });
    }
    std::sort(matched.begin(), matched.end());
    matched.erase(std::unique(matched.begin(), matched.end()), matched.end());
    for (SubscriptionId id : matched) {
      EvaluateOne(id, subs_.find(id)->second, delta, route_after);
    }
    evals_ += matched.size();
    evals_saved_ += subs_.size() - matched.size();
    if (evals_counter_ != nullptr) evals_counter_->Increment(matched.size());
    if (evals_saved_counter_ != nullptr) {
      evals_saved_counter_->Increment(subs_.size() - matched.size());
    }
  }
}

void SubscriptionEngine::ResetTracking() {
  for (auto& [id, sub] : subs_) sub.state.clear();
}

void SubscriptionEngine::PrimeObject(core::ObjectId id,
                                     const core::PositionAttribute& attr) {
  if (subs_.empty()) return;
  const geo::Route* route = nullptr;
  if (const auto r = network_->FindRoute(attr.route); r.ok()) route = *r;
  if (route == nullptr) return;
  // Priming runs once per recovered object, off the hot path; the plain
  // scan keeps it trivially deterministic.
  for (auto& [sid, sub] : subs_) {
    const core::RegionRelation rel = EvaluatePair(sub, attr, *route);
    if (rel == core::RegionRelation::kOutside) {
      sub.state.erase(id);
    } else {
      sub.state[id] = rel;
    }
  }
}

std::vector<SubscriptionEvent> SubscriptionEngine::TakeEvents() {
  std::vector<SubscriptionEvent> out = std::move(events_);
  events_.clear();
  return out;
}

}  // namespace modb::db
