#ifndef MODB_SIM_FLEET_H_
#define MODB_SIM_FLEET_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/types.h"
#include "db/mod_database.h"
#include "sim/vehicle.h"
#include "util/rng.h"
#include "util/status.h"

namespace modb::sim {

/// Fleet-simulation parameters.
struct FleetOptions {
  /// Policy-evaluation interval of every onboard computer.
  core::Duration tick = 1.0;
  /// Probability that a position-update message is lost in transit. The
  /// onboard computer only mirrors an update after delivery (an implicit
  /// acknowledgement), so a lost message leaves the vehicle's deviation
  /// bookkeeping intact and the policy re-decides — i.e. retransmits — at
  /// the next tick. The paper assumes a reliable channel; this knob is the
  /// failure-injection extension used to show the bounds survive loss.
  double message_loss_probability = 0.0;
  /// Seed for the loss process.
  std::uint64_t seed = 1;
  /// Verify, at every tick, that each vehicle's true position lies inside
  /// the uncertainty interval the database would answer with.
  bool verify_bounds = true;
  /// Uplink batching: how many delivered messages accumulate before the
  /// channel flushes them into the database as one `ApplyUpdateBatch`
  /// call. 1 is the historical per-update channel; larger values model a
  /// base station coalescing a window of messages (flushed when full and
  /// unconditionally at the end of every tick, so no update outlives its
  /// tick). The final store state is identical for any value — batching
  /// only changes how the write path is driven.
  std::size_t update_batch_size = 1;
};

/// Aggregate outcome of a fleet run.
struct FleetStats {
  /// Updates the vehicles attempted to send.
  std::uint64_t messages_attempted = 0;
  /// Updates that reached the database (attempted minus lost).
  std::uint64_t messages_lost = 0;
  /// Ticks simulated across all vehicles.
  std::uint64_t vehicle_ticks = 0;
  /// Verification failures (must stay 0; see FleetOptions::verify_bounds).
  std::uint64_t bound_violations = 0;
  /// Largest observed excess of the true deviation over the DBMS bound
  /// beyond the discretisation tolerance (diagnostic; 0 when none).
  double max_bound_excess = 0.0;

  std::uint64_t messages_delivered() const {
    return messages_attempted - messages_lost;
  }
};

/// Drives a mixed fleet of vehicles against a moving-objects database: per
/// tick, every onboard computer decides whether to update; messages cross a
/// (possibly lossy) channel; delivered updates are applied to the database
/// and acknowledged back to the vehicle. This is the harness behind the
/// fleet-level experiments and the failure-injection tests.
class FleetSimulator {
 public:
  /// `db` must outlive the simulator. Vehicles are added before `Run`.
  FleetSimulator(db::ModDatabase* db, FleetOptions options);

  /// Takes ownership of a vehicle. Call before `RegisterAll`.
  void AddVehicle(std::unique_ptr<VehicleBase> vehicle);

  /// Convenience: wraps a concrete vehicle.
  template <typename Motion>
  void AddVehicle(BasicVehicle<Motion> vehicle) {
    AddVehicle(std::make_unique<BasicVehicle<Motion>>(std::move(vehicle)));
  }

  /// Writes every vehicle's initial attribute into the database.
  util::Status RegisterAll();

  /// Advances the whole fleet by one tick to time `t` (strictly
  /// increasing across calls).
  util::Status Step(core::Time t);

  /// Runs from just after the earliest trip start to the latest trip end.
  util::Status Run();

  const FleetStats& stats() const { return stats_; }
  std::size_t num_vehicles() const { return vehicles_.size(); }
  const VehicleBase& vehicle(std::size_t i) const { return *vehicles_[i]; }

 private:
  db::ModDatabase* db_;
  FleetOptions options_;
  util::Rng rng_;
  std::vector<std::unique_ptr<VehicleBase>> vehicles_;
  FleetStats stats_;
  bool registered_ = false;
};

}  // namespace modb::sim

#endif  // MODB_SIM_FLEET_H_
