// Quickstart: the smallest end-to-end use of the modb public API.
//
//  1. Build a route network (the DBMS's route database, paper §2).
//  2. Register a moving object with a position attribute: the database
//     models its motion instead of storing a raw coordinate.
//  3. Ask "where is it now?" — answered by extrapolation, with the
//     deviation bound of §3.3 attached.
//  4. Deliver a position update (what the onboard update policy would
//     send) and query again.
//  5. Run a range query with MUST / MAY semantics (§4).
//  6. Ingest a window of updates in one batched call — the staged write
//     path validates, logs, applies and re-indexes the whole window at
//     once, with per-record statuses.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "db/mod_database.h"
#include "geo/route_network.h"

using modb::core::PolicyKind;
using modb::core::PositionAttribute;
using modb::core::PositionUpdate;
using modb::core::TravelDirection;

int main() {
  // 1. A route database with one 100-mile highway.
  modb::geo::RouteNetwork network;
  const modb::geo::RouteId highway =
      network.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "I-90");

  modb::db::ModDatabase db(&network);

  // 2. Truck 7 starts at mile 10, heading east at 1 mile/minute, using the
  //    average immediate-linear (ail) update policy with message cost C=5.
  PositionAttribute attr;
  attr.start_time = 0.0;
  attr.route = highway;
  attr.start_route_distance = 10.0;
  attr.start_position = {10.0, 0.0};
  attr.direction = TravelDirection::kForward;
  attr.speed = 1.0;
  attr.policy = PolicyKind::kAverageImmediateLinear;
  attr.update_cost = 5.0;
  attr.max_speed = 1.5;
  if (!db.Insert(7, "truck-7", attr).ok()) return 1;

  // 3. Where is truck 7 at minute 6? No message was ever sent; the DBMS
  //    extrapolates along the route and bounds the error.
  auto answer = db.QueryPosition(7, 6.0);
  if (!answer.ok()) return 1;
  std::printf("t=6:  db position mile %.1f at %s, actual position is within "
              "[-%.2f, +%.2f] miles of it\n",
              answer->route_distance, answer->position.ToString().c_str(),
              answer->slow_bound, answer->fast_bound);

  // 4. The truck hit traffic; its onboard policy decided to report. The
  //    update carries the new anchor point and predicted speed.
  PositionUpdate update;
  update.object = 7;
  update.time = 8.0;
  update.route = highway;
  update.route_distance = 16.5;  // actual position: fell behind
  update.position = {16.5, 0.0};
  update.direction = TravelDirection::kForward;
  update.speed = 0.6;  // average speed since the last report
  if (!db.ApplyUpdate(update).ok()) return 1;

  answer = db.QueryPosition(7, 10.0);
  if (!answer.ok()) return 1;
  std::printf("t=10: db position mile %.1f (re-anchored at t=8), bound "
              "%.2f miles\n",
              answer->route_distance, answer->deviation_bound);

  // 5. Which objects are inside miles [15, 20] of the highway right now?
  const modb::geo::Polygon region =
      modb::geo::Polygon::Rectangle(15.0, -1.0, 20.0, 1.0);
  const modb::db::RangeAnswer range = db.QueryRange(region, 10.0);
  std::printf("t=10: range query -> %zu object(s) MUST be in the region, "
              "%zu MAY be\n",
              range.must.size(), range.may.size());
  std::printf("      (update messages received so far: %llu)\n",
              static_cast<unsigned long long>(db.total_updates()));

  // 6. A base station hands over a whole window of reports at once.
  //    ApplyUpdateBatch runs the same staged write path as ApplyUpdate —
  //    validate, log, index, notify, commit — but pays the per-call costs
  //    once for the window and reports a status per record (a bad record
  //    never blocks the rest of the batch).
  std::vector<PositionUpdate> window;
  for (int i = 0; i < 3; ++i) {
    PositionUpdate u = update;
    u.time = 12.0 + static_cast<double>(i);
    u.route_distance = 17.0 + 0.5 * static_cast<double>(i);
    u.position = {u.route_distance, 0.0};
    window.push_back(u);
  }
  window.push_back(update);
  window.back().object = 99;  // never registered: rejected, others land
  const modb::db::UpdateBatchResult batch = db.ApplyUpdateBatch(window);
  std::printf("batch: %zu of %zu update(s) applied, %zu rejected (\"%s\")\n",
              batch.applied, batch.statuses.size(), batch.rejected,
              batch.first_error().message().c_str());
  return 0;
}
