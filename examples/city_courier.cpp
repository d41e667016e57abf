// City courier — route planning meets moving-objects tracking. Couriers
// receive jobs (pickup -> drop-off anchors on a street grid), plan the
// shortest multi-route path with the routing graph, and drive it as a
// multi-leg itinerary; every turn onto a new street is a forced position
// update (paper §2). The dispatcher assigns each job to the courier whose
// *guaranteed* position (database position plus uncertainty) is nearest
// the pickup, using the textual query language for its console.
//
// Run: ./build/examples/city_courier

#include <cstdio>
#include <string>
#include <vector>

#include "db/mod_database.h"
#include "db/query_language.h"
#include "geo/routing.h"
#include "sim/itinerary.h"
#include "sim/speed_curve.h"
#include "sim/vehicle.h"
#include "util/rng.h"

namespace {

constexpr std::size_t kCouriers = 6;
constexpr double kShiftMinutes = 50.0;

}  // namespace

int main() {
  modb::util::Rng rng(606);

  // An 8x8 street grid, quarter-mile blocks.
  modb::geo::RouteNetwork city;
  city.AddGridNetwork(8, 8, 0.25 * 4.0);  // 1 unit = 1/4 mile * 4 = 1 block
  const modb::geo::RoutingGraph roads(&city);
  std::printf("city grid: %zu streets, %zu junctions, %zu road segments\n\n",
              city.size(), roads.num_junctions(), roads.num_edges());

  modb::db::ModDatabase db(&city);

  modb::core::PolicyConfig policy;
  policy.kind = modb::core::PolicyKind::kCurrentImmediateLinear;
  policy.update_cost = 4.0;
  policy.max_speed = 1.2;

  // Each courier plans one job: random pickup and drop-off anchors.
  auto random_anchor = [&]() {
    modb::geo::RouteAnchor anchor;
    anchor.route = static_cast<modb::geo::RouteId>(
        rng.UniformInt(0, static_cast<std::int64_t>(city.size()) - 1));
    anchor.distance = rng.Uniform(0.0, city.route(anchor.route).Length());
    return anchor;
  };

  std::vector<modb::sim::ItineraryVehicle> couriers;
  couriers.reserve(kCouriers);
  for (modb::core::ObjectId id = 0; id < kCouriers; ++id) {
    // Plan until we draw a connected pair with a non-trivial path.
    std::vector<modb::geo::PathLeg> path;
    for (int attempt = 0; attempt < 20; ++attempt) {
      const auto candidate = roads.ShortestPath(random_anchor(),
                                                random_anchor());
      if (candidate.ok() && modb::geo::RoutingGraph::PathLength(*candidate) >
                                5.0) {
        path = *candidate;
        break;
      }
    }
    if (path.empty()) return 1;
    modb::sim::CurveGenOptions curve;
    curve.duration = kShiftMinutes;
    curve.cruise_speed = 0.8;
    curve.max_speed = policy.max_speed;
    couriers.emplace_back(
        id,
        modb::sim::MakeItineraryFromPath(city, path, 0.0,
                                         modb::sim::MakeCityCurve(rng, curve)),
        modb::core::MakePolicy(policy));
    if (!db.Insert(id, "courier-" + std::to_string(id),
                   couriers.back().InitialAttribute())
             .ok()) {
      return 1;
    }
    std::printf("courier %llu: %zu-leg plan, %.1f blocks\n",
                static_cast<unsigned long long>(id), path.size(),
                modb::geo::RoutingGraph::PathLength(path));
  }

  // Drive the shift; a new job lands every 10 minutes and is offered to
  // the provably-closest courier.
  std::printf("\n");
  std::size_t route_changes = 0;
  for (double t = 1.0; t <= kShiftMinutes; t += 1.0) {
    for (auto& courier : couriers) {
      const modb::geo::RouteId before = courier.attribute().route;
      if (const auto update = courier.Tick(t)) {
        if (!db.ApplyUpdate(*update).ok()) return 1;
        if (update->route != before) ++route_changes;
      }
    }
    if (static_cast<int>(t) % 10 == 0) {
      const auto pickup = random_anchor();
      const modb::geo::Point2 where =
          city.route(pickup.route).PointAt(pickup.distance);
      char query[128];
      std::snprintf(query, sizeof(query),
                    "NEAREST 1 TO POINT(%.2f, %.2f) AT %.0f", where.x,
                    where.y, t);
      const auto answer = modb::db::ExecuteQuery(db, query);
      std::printf("t=%2.0f  job at (%.1f, %.1f)  ->  %s\n", t, where.x,
                  where.y,
                  answer.ok() ? answer->c_str()
                              : answer.status().ToString().c_str());
    }
  }

  std::printf("\nshift over: %llu updates total, %zu forced by route "
              "changes along planned paths\n",
              static_cast<unsigned long long>(db.total_updates()),
              route_changes);
  return 0;
}
