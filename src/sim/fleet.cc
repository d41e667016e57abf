#include "sim/fleet.h"

#include <algorithm>
#include <cmath>

namespace modb::sim {

FleetSimulator::FleetSimulator(db::ModDatabase* db, FleetOptions options)
    : db_(db), options_(options), rng_(options.seed) {}

void FleetSimulator::AddVehicle(std::unique_ptr<VehicleBase> vehicle) {
  vehicles_.push_back(std::move(vehicle));
}

util::Status FleetSimulator::RegisterAll() {
  for (auto& v : vehicles_) {
    const core::PositionAttribute attr = v->InitialAttribute();
    if (util::Status s =
            db_->Insert(v->id(), "fleet-" + std::to_string(v->id()), attr);
        !s.ok()) {
      return s;
    }
  }
  registered_ = true;
  return util::Status::Ok();
}

util::Status FleetSimulator::Step(core::Time t) {
  if (!registered_) {
    return util::Status::FailedPrecondition("RegisterAll() not called");
  }
  // Delivered messages buffer in the channel and flush through the staged
  // batch path; an acknowledgement (CommitUpdate) only goes back for
  // records the database accepted, exactly as in the per-update channel.
  const std::size_t batch_size =
      std::max<std::size_t>(1, options_.update_batch_size);
  std::vector<core::PositionUpdate> pending;
  std::vector<VehicleBase*> senders;
  pending.reserve(batch_size);
  senders.reserve(batch_size);
  const auto flush = [&]() -> util::Status {
    if (pending.empty()) return util::Status::Ok();
    const db::UpdateBatchResult applied = db_->ApplyUpdateBatch(pending);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!applied.statuses[i].ok()) return applied.statuses[i];
      senders[i]->CommitUpdate(pending[i]);
    }
    pending.clear();
    senders.clear();
    return util::Status::Ok();
  };
  for (auto& v : vehicles_) {
    ++stats_.vehicle_ticks;
    if (std::optional<core::PositionUpdate> update = v->TickPrepare(t)) {
      ++stats_.messages_attempted;
      if (rng_.Bernoulli(options_.message_loss_probability)) {
        // Lost in transit: no acknowledgement, the vehicle's mirror stays
        // on the old anchor and the policy will re-fire.
        ++stats_.messages_lost;
      } else {
        pending.push_back(*update);
        senders.push_back(v.get());
        if (pending.size() >= batch_size) {
          if (util::Status s = flush(); !s.ok()) return s;
        }
      }
    }
  }
  // End-of-tick flush: every delivered message lands within its tick.
  if (util::Status s = flush(); !s.ok()) return s;
  if (options_.verify_bounds) {
    // Check the DBMS-side answer against ground truth, after all of this
    // tick's updates landed (each vehicle's answer depends only on its own
    // record, so verifying after the flush matches the per-update order).
    // The database's attribute equals the vehicle's mirror (updates are
    // only mirrored on delivery), so the paper's bounds must hold even
    // under loss.
    for (auto& v : vehicles_) {
      const auto answer = db_->QueryPosition(v->id(), t);
      if (!answer.ok()) return answer.status();
      const geo::RouteId true_route = v->GroundTruthRouteIdAt(t);
      if (true_route != answer->route) continue;  // pending route change
      const double actual = v->GroundTruthRouteDistanceAt(t);
      const double tolerance =
          2.0 * v->attribute().max_speed * options_.tick + 1e-9;
      const double excess_lo = answer->uncertainty.lo - tolerance - actual;
      const double excess_hi = actual - answer->uncertainty.hi - tolerance;
      const double excess = std::max(excess_lo, excess_hi);
      if (excess > 0.0) {
        ++stats_.bound_violations;
        stats_.max_bound_excess = std::max(stats_.max_bound_excess, excess);
      }
    }
  }
  return util::Status::Ok();
}

util::Status FleetSimulator::Run() {
  if (vehicles_.empty()) return util::Status::Ok();
  core::Time start = vehicles_.front()->trip_start_time();
  core::Time end = vehicles_.front()->trip_end_time();
  for (const auto& v : vehicles_) {
    start = std::min(start, v->trip_start_time());
    end = std::max(end, v->trip_end_time());
  }
  for (core::Time t = start + options_.tick; t <= end + 1e-9;
       t += options_.tick) {
    if (util::Status s = Step(t); !s.ok()) return s;
  }
  return util::Status::Ok();
}

}  // namespace modb::sim
