// Seeded differential: a store on the route-band index answers every query
// bit for bit as a store on the time-space (slab-box) index fed the same
// operations. Both cut at the same horizon end, and refinement is exact
// over [start, horizon end], so candidate supersets must not show through.
// The operations take every write shape: bulk and single inserts, update
// batches, erases followed by reinserts, a bulk insert into a populated
// store and a bulk-ingest session. A stale entry would only be a spare
// candidate, so after each round the band index must also hold exactly
// one entry per stored object and have missed no removal.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "db/mod_database.h"
#include "geo/polygon.h"
#include "geo/route_network.h"
#include "index/route_band_index.h"
#include "util/rng.h"

namespace modb::db {
namespace {

constexpr core::PolicyKind kPolicies[] = {
    core::PolicyKind::kDelayedLinear,
    core::PolicyKind::kAverageImmediateLinear,
    core::PolicyKind::kCurrentImmediateLinear,
    core::PolicyKind::kFixedThreshold,
    core::PolicyKind::kPeriodic,
    core::PolicyKind::kHybridAdaptive,
    core::PolicyKind::kStepThreshold,
};

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class RouteBandDifferentialTest : public testing::TestWithParam<int> {
 protected:
  static constexpr core::ObjectId kObjects = 400;
  static constexpr int kRounds = 30;
  static constexpr int kUpdatesPerRound = 60;
  static constexpr int kQueriesPerRound = 20;
  static constexpr int kReinsertsPerRound = 3;
  static constexpr int kBulkInsertRound = 10;
  static constexpr int kBulkIngestRound = 20;
  static constexpr core::ObjectId kBulkInserted = 40;
  static constexpr double kHorizon = 20.0;
  static constexpr double kRoundTime = 1.5;

  RouteBandDifferentialTest() : rng_(1000 + GetParam()) {
    ModDatabaseOptions options;
    options.oplane_horizon = kHorizon;
    options.index_kind = IndexKind::kTimeSpaceRTree;
    slabs_ = std::make_unique<ModDatabase>(&network_, options);
    options.index_kind = IndexKind::kRouteBand;
    bands_ = std::make_unique<ModDatabase>(&network_, options);
    // The network is built after both stores: the indexes meet every
    // route only when a row names it. Everything stays inside the grid's
    // 90-unit box, so nearest queries from outside it are possible.
    network_.AddGridNetwork(4, 4, 30.0);
    for (int i = 0; i < 4; ++i) {
      network_.AddRandomWindingRoute(
          rng_, {rng_.Uniform(30.0, 60.0), rng_.Uniform(30.0, 60.0)}, 10, 3.0,
          0.6);
    }
    network_.AddLoopRoute(15.0, 15.0, 75.0, 75.0, 2);
  }

  /// A route position at or near an end half of the time.
  double PickDistance(double length) {
    const double u = rng_.Uniform(0.0, 1.0);
    if (u < 0.15) return 0.0;
    if (u < 0.3) return length;
    if (u < 0.4) return rng_.Uniform(0.0, std::min(2.0, length));
    if (u < 0.5) return length - rng_.Uniform(0.0, std::min(2.0, length));
    return rng_.Uniform(0.0, length);
  }

  double PickSpeed() {
    return rng_.Uniform(0.0, 1.0) < 0.2 ? 0.0 : rng_.Uniform(0.0, 1.6);
  }

  core::TravelDirection PickDirection() {
    return rng_.Uniform(0.0, 1.0) < 0.5 ? core::TravelDirection::kForward
                                        : core::TravelDirection::kBackward;
  }

  core::PositionAttribute NewObject(core::Time t0) {
    core::PositionAttribute attr;
    attr.start_time = t0;
    attr.route = static_cast<geo::RouteId>(
        rng_.UniformInt(0, static_cast<std::int64_t>(network_.size()) - 1));
    const geo::Route& route = network_.route(attr.route);
    attr.start_route_distance = PickDistance(route.Length());
    attr.start_position = route.PointAt(attr.start_route_distance);
    attr.direction = PickDirection();
    attr.speed = PickSpeed();
    attr.policy = kPolicies[rng_.UniformInt(0, 6)];
    attr.update_cost = rng_.Uniform(1.0, 8.0);
    attr.max_speed = rng_.Uniform(0.0, 1.0) < 0.2
                         ? 0.0
                         : attr.speed + rng_.Uniform(0.0, 1.0);
    attr.fixed_threshold = rng_.Uniform(0.5, 4.0);
    attr.period = rng_.Uniform(0.5, 3.0);
    attr.step_threshold = rng_.Uniform(0.5, 3.0);
    return attr;
  }

  core::PositionUpdate NewUpdate(core::ObjectId id, core::Time now) {
    core::PositionUpdate update;
    update.object = id;
    // Never before the object's latest start, in the store or this batch.
    update.time = std::max(last_start_[id], now + rng_.Uniform(0.0, 1.0));
    last_start_[id] = update.time;
    update.route = static_cast<geo::RouteId>(
        rng_.UniformInt(0, static_cast<std::int64_t>(network_.size()) - 1));
    const geo::Route& route = network_.route(update.route);
    update.route_distance = PickDistance(route.Length());
    update.position = route.PointAt(update.route_distance);
    update.direction = PickDirection();
    update.speed = PickSpeed();
    return update;
  }

  /// Before some starts, inside the horizon, around its end (where few
  /// models are still covered), or past every model's end.
  core::Time PickTime(core::Time now) {
    const double u = rng_.Uniform(0.0, 1.0);
    if (u < 0.25) return now - rng_.Uniform(0.0, 6.0);
    if (u < 0.6) return now + rng_.Uniform(0.0, kHorizon);
    if (u < 0.85) return now + kHorizon + rng_.Uniform(-1.0, 2.0);
    return now + rng_.Uniform(kHorizon, 2.0 * kHorizon);
  }

  geo::Polygon PickRegion() {
    const geo::Point2 c{rng_.Uniform(-10.0, 100.0), rng_.Uniform(-10.0, 100.0)};
    if (rng_.Uniform(0.0, 1.0) < 0.5) {
      return geo::Polygon::CenteredRectangle(c, rng_.Uniform(1.0, 25.0),
                                             rng_.Uniform(1.0, 25.0));
    }
    return geo::Polygon::RegularNGon(c, rng_.Uniform(2.0, 25.0), 7);
  }

  void CompareRange(const geo::Polygon& region, core::Time t) {
    const RangeAnswer a = slabs_->QueryRange(region, t);
    const RangeAnswer b = bands_->QueryRange(region, t);
    ASSERT_EQ(a.must, b.must) << "t=" << t;
    ASSERT_EQ(a.may, b.may) << "t=" << t;
    ASSERT_EQ(a.may_probability.size(), b.may_probability.size());
    for (std::size_t i = 0; i < a.may_probability.size(); ++i) {
      ASSERT_EQ(Bits(a.may_probability[i]), Bits(b.may_probability[i]))
          << "t=" << t << " id " << a.may[i];
    }
    answers_ += a.must.size() + a.may.size();
  }

  void CompareInterval(const geo::Polygon& region, core::Time t1,
                       core::Time t2) {
    const IntervalRangeAnswer a = slabs_->QueryRangeInterval(region, t1, t2);
    const IntervalRangeAnswer b = bands_->QueryRangeInterval(region, t1, t2);
    ASSERT_EQ(a.may, b.may) << "[" << t1 << ", " << t2 << "]";
    ASSERT_EQ(a.must_at_some_time, b.must_at_some_time)
        << "[" << t1 << ", " << t2 << "]";
    answers_ += a.may.size();
  }

  /// The k objects nearest to `point` by database position among those
  /// whose model covers `t`, in `NearestAnswer::ItemOrder`.
  std::vector<core::ObjectId> NearestByScan(const geo::Point2& point,
                                            std::size_t k, core::Time t) {
    std::vector<NearestAnswer::Item> all;
    for (core::ObjectId id = 0; id < last_start_.size(); ++id) {
      const core::PositionAttribute& attr = (*slabs_->Get(id))->attr;
      if (t < attr.start_time ||
          t > slabs_->object_index().CoverageEnd(attr)) {
        continue;
      }
      const geo::Route& route = network_.route(attr.route);
      NearestAnswer::Item item;
      item.id = id;
      item.db_distance = geo::Distance(
          point,
          route.PointAt(attr.ClampedDatabaseRouteDistanceAt(t, route.Length())));
      all.push_back(item);
    }
    std::sort(all.begin(), all.end(), NearestAnswer::ItemOrder);
    std::vector<core::ObjectId> ids;
    for (std::size_t i = 0; i < std::min(k, all.size()); ++i) {
      ids.push_back(all[i].id);
    }
    return ids;
  }

  void CompareNearest(const geo::Point2& point, std::size_t k, core::Time t) {
    const NearestAnswer a = slabs_->QueryNearest(point, k, t);
    const NearestAnswer b = bands_->QueryNearest(point, k, t);
    std::vector<core::ObjectId> ids;
    for (const NearestAnswer::Item& item : a.items) ids.push_back(item.id);
    // Both kinds must also find the true k nearest covered objects.
    ASSERT_EQ(ids, NearestByScan(point, k, t))
        << point.ToString() << " k=" << k << " t=" << t;
    ASSERT_EQ(a.items.size(), b.items.size())
        << point.ToString() << " k=" << k << " t=" << t;
    for (std::size_t i = 0; i < a.items.size(); ++i) {
      const NearestAnswer::Item& x = a.items[i];
      const NearestAnswer::Item& y = b.items[i];
      ASSERT_EQ(x.id, y.id) << point.ToString() << " k=" << k << " t=" << t;
      ASSERT_EQ(Bits(x.db_distance), Bits(y.db_distance));
      ASSERT_EQ(Bits(x.min_possible_distance), Bits(y.min_possible_distance));
      ASSERT_EQ(Bits(x.max_possible_distance), Bits(y.max_possible_distance));
    }
    answers_ += a.items.size();
  }

  /// A random id of the fleet (ids are dense from 0).
  core::ObjectId PickId() {
    return static_cast<core::ObjectId>(
        rng_.UniformInt(0, static_cast<std::int64_t>(last_start_.size()) - 1));
  }

  /// Erases a few objects from both stores and inserts each again with a
  /// new model.
  void EraseAndReinsert(core::Time now) {
    for (int k = 0; k < kReinsertsPerRound; ++k) {
      const core::ObjectId id = PickId();
      ASSERT_TRUE(slabs_->Erase(id).ok());
      ASSERT_TRUE(bands_->Erase(id).ok());
      const core::PositionAttribute attr =
          NewObject(now + rng_.Uniform(0.0, 1.0));
      last_start_[id] = attr.start_time;
      ASSERT_TRUE(slabs_->Insert(id, "", attr).ok());
      ASSERT_TRUE(bands_->Insert(id, "", attr).ok());
    }
  }

  /// Bulk-inserts `kBulkInserted` new ids into both (populated) stores.
  void BulkInsertNewIds(core::Time now) {
    std::vector<ModDatabase::BulkObject> bulk;
    for (core::ObjectId k = 0; k < kBulkInserted; ++k) {
      bulk.push_back({static_cast<core::ObjectId>(last_start_.size()), "",
                      NewObject(now + rng_.Uniform(0.0, 1.0))});
      last_start_.push_back(bulk.back().attr.start_time);
    }
    ASSERT_TRUE(slabs_->BulkInsert(bulk).ok());
    ASSERT_TRUE(bands_->BulkInsert(bulk).ok());
  }

  /// The band store's index holds one entry per stored object and has
  /// missed no removal.
  void CheckBandEntries() {
    const auto& bands =
        static_cast<const index::RouteBandIndex&>(bands_->object_index());
    ASSERT_EQ(bands.num_entries(), bands_->num_objects());
    ASSERT_EQ(bands.remove_misses(), 0u);
  }

  util::Rng rng_;
  std::vector<core::Time> last_start_ = std::vector<core::Time>(kObjects);
  geo::RouteNetwork network_;
  std::unique_ptr<ModDatabase> slabs_;
  std::unique_ptr<ModDatabase> bands_;
  std::size_t answers_ = 0;
};

TEST_P(RouteBandDifferentialTest, AnswersMatchTheTimeSpaceIndex) {
  // Half the fleet bulk-loaded, half inserted one by one.
  std::vector<ModDatabase::BulkObject> bulk;
  for (core::ObjectId id = 0; id < kObjects / 2; ++id) {
    bulk.push_back({id, "", NewObject(rng_.Uniform(0.0, 2.0))});
    last_start_[id] = bulk.back().attr.start_time;
  }
  ASSERT_TRUE(slabs_->BulkInsert(bulk).ok());
  ASSERT_TRUE(bands_->BulkInsert(bulk).ok());
  for (core::ObjectId id = kObjects / 2; id < kObjects; ++id) {
    const core::PositionAttribute attr = NewObject(rng_.Uniform(0.0, 2.0));
    last_start_[id] = attr.start_time;
    ASSERT_TRUE(slabs_->Insert(id, "", attr).ok());
    ASSERT_TRUE(bands_->Insert(id, "", attr).ok());
  }
  EXPECT_EQ(bands_->object_index().num_entries(), kObjects);

  for (int round = 1; round <= kRounds; ++round) {
    const core::Time now = kRoundTime * round;
    std::vector<core::PositionUpdate> updates;
    for (int u = 0; u < kUpdatesPerRound; ++u) {
      updates.push_back(NewUpdate(PickId(), now));
    }
    // Once, the batch lands in a bulk-ingest session, which skips the
    // index until its end rebuilds it from every record.
    const bool bulk_ingest = round == kBulkIngestRound;
    if (bulk_ingest) {
      ASSERT_TRUE(slabs_->BeginBulkIngest().ok());
      ASSERT_TRUE(bands_->BeginBulkIngest().ok());
    }
    ASSERT_TRUE(slabs_->ApplyUpdateBatch(updates).all_ok());
    ASSERT_TRUE(bands_->ApplyUpdateBatch(updates).all_ok());
    if (bulk_ingest) {
      ASSERT_TRUE(slabs_->FinishBulkIngest().ok());
      ASSERT_TRUE(bands_->FinishBulkIngest().ok());
    }
    EraseAndReinsert(now);
    if (HasFatalFailure()) return;
    if (round == kBulkInsertRound) {
      BulkInsertNewIds(now);
      if (HasFatalFailure()) return;
    }
    CheckBandEntries();
    if (HasFatalFailure()) return;

    for (int q = 0; q < kQueriesPerRound; ++q) {
      const core::Time t = PickTime(now);
      switch (q % 3) {
        case 0:
          CompareRange(PickRegion(), t);
          break;
        case 1: {
          // Windows start before, inside or past the horizon and run up to
          // 1.5 horizons, so they cross the models' starts and ends.
          CompareInterval(PickRegion(), t,
                          t + rng_.Uniform(0.0, 1.5 * kHorizon));
          break;
        }
        default:
          // Points inside the 90-unit network box and up to 30 units
          // outside it.
          CompareNearest(
              {rng_.Uniform(-30.0, 120.0), rng_.Uniform(-30.0, 120.0)},
              static_cast<std::size_t>(rng_.UniformInt(1, 8)), t);
          break;
      }
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(bands_->object_index().num_entries(), kObjects + kBulkInserted);
  EXPECT_GT(answers_, 2000u);  // the comparisons are not vacuous
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteBandDifferentialTest,
                         testing::Range(1, 13));

}  // namespace
}  // namespace modb::db
