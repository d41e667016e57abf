// Battlefield awareness — the paper's military scenario: "retrieve the
// friendly helicopters that are currently in a given region", plus the
// future-time variant the time-space index supports ("where will they be
// in 10 minutes?", §4.2: t0 may be the current time or a future time).
//
// Helicopters fly winding patrol routes using the delayed-linear (dl)
// policy with the current speed as the prediction — appropriate for steady
// cruise flight. The command post runs range queries at the current time
// and 10 minutes ahead; MUST contacts are guaranteed inside the region,
// MAY contacts are possibly inside (their uncertainty interval crosses the
// boundary).
//
// Run: ./build/examples/battlefield

#include <cstdio>
#include <string>
#include <vector>

#include "db/mod_database.h"
#include "sim/speed_curve.h"
#include "sim/trip.h"
#include "sim/vehicle.h"
#include "util/rng.h"

int main() {
  modb::util::Rng rng(1998);

  // Patrol corridors: winding routes across a 60 x 60 km sector.
  modb::geo::RouteNetwork sector;
  for (int i = 0; i < 6; ++i) {
    sector.AddRandomWindingRoute(
        rng, {rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 60.0)},
        /*num_segments=*/60, /*leg_length=*/2.0,
        /*max_turn_radians=*/0.35, "patrol-" + std::to_string(i));
  }

  // Index with a 90-minute horizon so future-time queries stay covered.
  modb::db::ModDatabaseOptions db_options;
  db_options.oplane_horizon = 90.0;
  modb::db::ModDatabase db(&sector, db_options);

  // Helicopters: steady cruise with mild fluctuation -> dl policy with the
  // current speed (paper §3.1: appropriate when speed fluctuates mildly).
  modb::sim::CurveGenOptions cruise;
  cruise.duration = 60.0;
  cruise.cruise_speed = 1.8;  // km per minute (~108 km/h)
  cruise.max_speed = 2.4;

  modb::core::PolicyConfig policy;
  policy.kind = modb::core::PolicyKind::kDelayedLinear;
  policy.update_cost = 10.0;  // contested spectrum: radio silence is cheap
  policy.max_speed = cruise.max_speed;

  std::vector<modb::sim::Vehicle> helos;
  for (modb::core::ObjectId id = 0; id < 6; ++id) {
    const modb::geo::Route& route =
        sector.route(static_cast<modb::geo::RouteId>(id));
    const modb::sim::Trip trip(&route, 0.0,
                               modb::core::TravelDirection::kForward, 0.0,
                               modb::sim::MakeHighwayCurve(rng, cruise));
    helos.emplace_back(id, trip, modb::core::MakePolicy(policy));
    if (!db.Insert(id, "helo-" + std::to_string(id),
                   helos.back().InitialAttribute())
             .ok()) {
      return 1;
    }
  }

  // The area of operations being watched.
  const modb::geo::Polygon aoi =
      modb::geo::Polygon::Rectangle(20.0, 15.0, 55.0, 45.0);

  auto report = [&](double t, const char* label, double query_time) {
    const modb::db::RangeAnswer contacts = db.QueryRange(aoi, query_time);
    std::printf("t=%4.0f  %-14s MUST:", t, label);
    for (const auto id : contacts.must) {
      std::printf(" helo-%llu", static_cast<unsigned long long>(id));
    }
    std::printf("  MAY:");
    for (const auto id : contacts.may) {
      std::printf(" helo-%llu", static_cast<unsigned long long>(id));
    }
    std::printf("\n");
  };

  for (double t = 1.0; t <= 60.0; t += 1.0) {
    for (auto& helo : helos) {
      if (const auto update = helo.Tick(t)) {
        if (!db.ApplyUpdate(*update).ok()) return 1;
      }
    }
    if (static_cast<int>(t) % 15 == 0) {
      report(t, "(now)", t);
      report(t, "(in 10 min)", t + 10.0);
      // Precision on demand: the bound the DBMS can quote per §3.3.
      const auto pos = db.QueryPosition(0, t);
      if (pos.ok()) {
        std::printf("        helo-0 at %s, guaranteed within %.2f km "
                    "(interval [%.1f, %.1f] on its route)\n",
                    pos->position.ToString().c_str(), pos->deviation_bound,
                    pos->uncertainty.lo, pos->uncertainty.hi);
      }
    }
  }

  std::printf("\nradio messages for 6 aircraft over 60 minutes: %llu\n",
              static_cast<unsigned long long>(db.total_updates()));
  return 0;
}
