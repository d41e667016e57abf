// Trucking assistance — the paper's third scenario: "retrieve the trucks
// that are currently within 1 mile of truck ABT312 (which needs
// assistance)". Also demonstrates tuning the update policy to the message
// price: the same fleet is simulated twice, with cheap and expensive
// wireless messages, showing how the cost-based policies adapt the update
// frequency (the paper's central trade-off, §1).
//
// Run: ./build/examples/trucking

#include <cstdio>
#include <string>
#include <vector>

#include "db/mod_database.h"
#include "sim/speed_curve.h"
#include "sim/trip.h"
#include "sim/vehicle.h"
#include "util/rng.h"

namespace {

struct FleetRun {
  double update_cost;
  unsigned long long messages;
  double avg_bound;
};

FleetRun RunFleet(double update_cost, bool print_assistance) {
  modb::util::Rng rng(312);

  // An interstate corridor: two parallel highways with an interchange.
  modb::geo::RouteNetwork corridor;
  const auto i80 =
      corridor.AddStraightRoute({0.0, 0.0}, {120.0, 0.0}, "I-80");
  const auto i76 =
      corridor.AddStraightRoute({0.0, 4.0}, {120.0, 4.0}, "I-76");

  modb::db::ModDatabase db(&corridor);

  modb::sim::CurveGenOptions highway;
  highway.duration = 60.0;
  highway.cruise_speed = 1.0;
  highway.max_speed = 1.3;

  modb::core::PolicyConfig policy;
  policy.kind = modb::core::PolicyKind::kCurrentImmediateLinear;
  policy.update_cost = update_cost;
  policy.max_speed = highway.max_speed;

  constexpr std::size_t kTrucks = 24;
  std::vector<modb::sim::Vehicle> trucks;
  trucks.reserve(kTrucks);
  for (modb::core::ObjectId id = 0; id < kTrucks; ++id) {
    const modb::geo::RouteId route_id = id % 2 == 0 ? i80 : i76;
    const modb::geo::Route& route = corridor.route(route_id);
    // Trucks enter staggered along the first half of the corridor.
    const modb::sim::Trip trip(
        &route, rng.Uniform(0.0, 50.0), modb::core::TravelDirection::kForward,
        0.0, modb::sim::MakeHighwayCurve(rng, highway));
    trucks.emplace_back(id, trip, modb::core::MakePolicy(policy));
    if (!db.Insert(id, id == 3 ? "ABT312" : "truck-" + std::to_string(id),
                   trucks.back().InitialAttribute())
             .ok()) {
      return {};
    }
  }

  double bound_sum = 0.0;
  std::size_t bound_samples = 0;
  for (double t = 1.0; t <= 60.0; t += 1.0) {
    for (auto& truck : trucks) {
      if (const auto update = truck.Tick(t)) {
        if (!db.ApplyUpdate(*update).ok()) return {};
      }
    }
    // Track the fleet-average uncertainty the dispatcher lives with.
    for (modb::core::ObjectId id = 0; id < kTrucks; ++id) {
      const auto pos = db.QueryPosition(id, t);
      if (pos.ok()) {
        bound_sum += pos->deviation_bound;
        ++bound_samples;
      }
    }
    // Minute 30: truck ABT312 (object 3) breaks down and calls for help.
    if (print_assistance && t == 30.0) {
      const auto stranded = db.QueryPosition(3, t);
      if (!stranded.ok()) return {};
      std::printf("t=30: ABT312 requests assistance near %s "
                  "(position known to within %.2f miles)\n",
                  stranded->position.ToString().c_str(),
                  stranded->deviation_bound);
      const modb::geo::Polygon disc = modb::geo::Polygon::RegularNGon(
          stranded->position, 5.0, 24);  // helpers within 5 miles
      const modb::db::RangeAnswer helpers = db.QueryRange(disc, t);
      std::printf("      trucks guaranteed within 5 miles:");
      for (const auto id : helpers.must) {
        if (id == 3) continue;
        std::printf(" %s", (*db.Get(id))->label.c_str());
      }
      std::printf("\n      possibly within 5 miles:");
      for (const auto id : helpers.may) {
        if (id == 3) continue;
        std::printf(" %s", (*db.Get(id))->label.c_str());
      }
      std::printf("\n\n");
    }
  }

  FleetRun run;
  run.update_cost = update_cost;
  run.messages = db.total_updates();
  run.avg_bound = bound_samples > 0
                      ? bound_sum / static_cast<double>(bound_samples)
                      : 0.0;
  return run;
}

}  // namespace

int main() {
  std::printf("-- fleet with cheap messages (C = 1) --\n");
  const FleetRun cheap = RunFleet(1.0, /*print_assistance=*/true);

  std::printf("-- fleet with expensive messages (C = 25) --\n\n");
  const FleetRun expensive = RunFleet(25.0, /*print_assistance=*/false);

  std::printf("policy adaptation to the message price (24 trucks, 60 min):\n");
  std::printf("  C = %4.0f : %4llu messages, fleet-average uncertainty "
              "%.2f miles\n",
              cheap.update_cost, cheap.messages, cheap.avg_bound);
  std::printf("  C = %4.0f : %4llu messages, fleet-average uncertainty "
              "%.2f miles\n",
              expensive.update_cost, expensive.messages,
              expensive.avg_bound);
  std::printf("expensive messages -> fewer updates, wider (but still "
              "bounded) uncertainty.\n");
  return 0;
}
