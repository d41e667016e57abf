// Taxi dispatch — the paper's opening scenario: "retrieve the free cabs
// that are currently within 1 mile of 33 N. Michigan Ave., Chicago".
//
// A fleet of cabs drives a downtown street grid. Each cab's onboard
// computer runs the ail update policy (§3.2): it tracks its own deviation
// from what the database believes and only sends a position update when
// the cost-based threshold fires. The dispatcher polls the database with
// range queries around pickup requests; MUST cabs are guaranteed close,
// MAY cabs are possibly close.
//
// Run: ./build/examples/taxi_dispatch

#include <cstdio>
#include <string>
#include <vector>

#include "db/mod_database.h"
#include "sim/speed_curve.h"
#include "sim/trip.h"
#include "sim/vehicle.h"
#include "util/rng.h"

namespace {

constexpr double kMilePerMinute = 1.0;  // cruise speed: 60 mi/h
constexpr std::size_t kNumCabs = 40;
constexpr double kSimMinutes = 45.0;

}  // namespace

int main() {
  modb::util::Rng rng(33);

  // Downtown: cabs cruise rectangular loops through a 4 x 4 mile grid
  // (loop routes keep a cab circulating instead of parking at a street
  // end; 12 laps cover a full shift at cruise speed).
  modb::geo::RouteNetwork chicago;
  for (int i = 0; i < 10; ++i) {
    const double x0 = rng.Uniform(0.0, 1.5);
    const double y0 = rng.Uniform(0.0, 1.5);
    chicago.AddLoopRoute(x0, y0, x0 + rng.Uniform(1.5, 2.5),
                         y0 + rng.Uniform(1.5, 2.5), 12,
                         "loop-" + std::to_string(i));
  }

  modb::db::ModDatabase db(&chicago);

  // Spawn the fleet: city stop-and-go speed curves, random streets.
  modb::sim::CurveGenOptions curve_options;
  curve_options.duration = kSimMinutes;
  curve_options.cruise_speed = kMilePerMinute;
  curve_options.max_speed = 1.2;

  modb::core::PolicyConfig policy;
  policy.kind = modb::core::PolicyKind::kAverageImmediateLinear;
  policy.update_cost = 5.0;  // a wireless message costs 5 deviation units
  policy.max_speed = curve_options.max_speed;

  std::vector<modb::sim::Vehicle> cabs;
  cabs.reserve(kNumCabs);
  for (std::size_t i = 0; i < kNumCabs; ++i) {
    const auto route_id = static_cast<modb::geo::RouteId>(
        rng.UniformInt(0, static_cast<std::int64_t>(chicago.size()) - 1));
    const modb::geo::Route& route = chicago.route(route_id);
    const modb::sim::Trip trip(
        &route, rng.Uniform(0.0, route.Length() * 0.2),
        modb::core::TravelDirection::kForward, 0.0,
        modb::sim::MakeCityCurve(rng, curve_options));
    cabs.emplace_back(i, trip, modb::core::MakePolicy(policy));
    if (!db.Insert(i, "cab-" + std::to_string(i), cabs.back().InitialAttribute())
             .ok()) {
      return 1;
    }
  }

  // "33 N. Michigan Ave.": a street corner in the middle of the grid.
  const modb::geo::Point2 michigan_ave{1.5, 2.0};
  const modb::geo::Polygon one_mile_disc =
      modb::geo::Polygon::RegularNGon(michigan_ave, 1.0, 24);

  std::printf("dispatching from (%.1f, %.1f); 1-mile pickup radius\n\n",
              michigan_ave.x, michigan_ave.y);
  std::printf("%6s %10s %8s %8s %10s\n", "minute", "msgs-recvd", "MUST",
              "MAY", "candidates");

  std::vector<modb::core::PositionUpdate> window;
  for (double t = 1.0; t <= kSimMinutes; t += 1.0) {
    // Every cab's onboard computer decides whether to report; the base
    // station coalesces the minute's reports and hands the window to the
    // database as one staged batch (one validation pass, one WAL frame,
    // one grouped index delta) instead of a call per message.
    window.clear();
    for (auto& cab : cabs) {
      if (const auto update = cab.Tick(t)) window.push_back(*update);
    }
    if (!db.ApplyUpdateBatch(window).all_ok()) return 1;
    // A customer calls every 5 minutes.
    if (static_cast<int>(t) % 5 == 0) {
      const modb::db::RangeAnswer nearby = db.QueryRange(one_mile_disc, t);
      std::printf("%6.0f %10llu %8zu %8zu %10zu\n", t,
                  static_cast<unsigned long long>(db.total_updates()),
                  nearby.must.size(), nearby.may.size(),
                  nearby.candidates_examined);
      // Dispatch the first guaranteed-close cab, if any.
      if (!nearby.must.empty()) {
        const auto pos = db.QueryPosition(nearby.must.front(), t);
        if (pos.ok()) {
          std::printf("        -> dispatch cab %llu at %s "
                      "(uncertainty +/- %.2f mi)\n",
                      static_cast<unsigned long long>(nearby.must.front()),
                      pos->position.ToString().c_str(),
                      pos->deviation_bound);
        }
      }
    }
  }

  const double traditional = kNumCabs * kSimMinutes;  // one report/min/cab
  const double actual = static_cast<double>(db.total_updates());
  std::printf("\nwireless messages: %.0f (traditional per-minute reporting "
              "would use %.0f -> %.0f%% saved)\n",
              actual, traditional, 100.0 * (1.0 - actual / traditional));
  return 0;
}
