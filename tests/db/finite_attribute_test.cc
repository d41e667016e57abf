// Every write path refuses a position attribute with a non-finite numeric
// field (a NaN passes every range check, and an infinite speed or time
// reaches the index as an unbounded box) or a negative policy parameter (a
// negative deviation bound turns the uncertainty interval inside out), and
// leaves the store unchanged.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "db/mod_database.h"
#include "db/snapshot.h"

namespace modb::db {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kBadValues[] = {kInf, -kInf, kNaN};

class FiniteAttributeTest : public testing::Test {
 protected:
  FiniteAttributeTest() {
    route_ = network_.AddStraightRoute({0.0, 0.0}, {100.0, 0.0}, "r");
  }

  core::PositionAttribute Attr(double s) const {
    core::PositionAttribute attr;
    attr.route = route_;
    attr.start_route_distance = s;
    attr.start_position = {s, 0.0};
    attr.speed = 1.0;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    return attr;
  }

  // Every numeric field of an attribute, by name.
  static std::vector<std::pair<std::string, double core::PositionAttribute::*>>
  ScalarFields() {
    using A = core::PositionAttribute;
    return {{"start_time", &A::start_time},
            {"start_route_distance", &A::start_route_distance},
            {"speed", &A::speed},
            {"update_cost", &A::update_cost},
            {"max_speed", &A::max_speed},
            {"fixed_threshold", &A::fixed_threshold},
            {"period", &A::period},
            {"step_threshold", &A::step_threshold}};
  }

  // The attribute with one field set to `bad` (fields past the scalars are
  // the two position coordinates).
  std::vector<std::pair<std::string, core::PositionAttribute>> Corrupted(
      double s, double bad) const {
    std::vector<std::pair<std::string, core::PositionAttribute>> out;
    for (const auto& [name, field] : ScalarFields()) {
      core::PositionAttribute attr = Attr(s);
      attr.*field = bad;
      out.emplace_back(name, attr);
    }
    core::PositionAttribute x = Attr(s);
    x.start_position.x = bad;
    out.emplace_back("start_position.x", x);
    core::PositionAttribute y = Attr(s);
    y.start_position.y = bad;
    out.emplace_back("start_position.y", y);
    return out;
  }

  // The whole store as answered by a range query covering the route.
  static std::string Fingerprint(const ModDatabase& db) {
    const RangeAnswer a =
        db.QueryRange(geo::Polygon::Rectangle(-1.0, -1.0, 101.0, 1.0), 5.0);
    std::ostringstream out;
    out.precision(17);
    out << db.num_objects() << " must";
    for (core::ObjectId id : a.must) out << ' ' << id;
    out << " may";
    for (std::size_t i = 0; i < a.may.size(); ++i) {
      out << ' ' << a.may[i] << ':' << a.may_probability[i];
    }
    return out.str();
  }

  geo::RouteNetwork network_;
  geo::RouteId route_ = geo::kInvalidRouteId;
};

TEST_F(FiniteAttributeTest, InsertAndBulkInsertRefuseNonFiniteFields) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "", Attr(10.0)).ok());
  const std::string before = Fingerprint(db);
  for (const double bad : kBadValues) {
    for (const auto& [name, attr] : Corrupted(20.0, bad)) {
      const util::Status s = db.Insert(2, "", attr);
      EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument)
          << name << " = " << bad;
      std::vector<ModDatabase::BulkObject> batch;
      batch.push_back({3, "", Attr(30.0)});
      batch.push_back({4, "", attr});
      EXPECT_EQ(db.BulkInsert(std::move(batch)).code(),
                util::StatusCode::kInvalidArgument)
          << name << " = " << bad;
      EXPECT_EQ(Fingerprint(db), before) << name << " = " << bad;
    }
  }
}

TEST_F(FiniteAttributeTest, ApplyUpdateRefusesNonFiniteFields) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "", Attr(10.0)).ok());
  const std::string before = Fingerprint(db);
  core::PositionUpdate base;
  base.object = 1;
  base.time = 2.0;
  base.route = route_;
  base.route_distance = 12.0;
  base.position = {12.0, 0.0};
  base.speed = 1.0;
  using U = core::PositionUpdate;
  const std::vector<std::pair<std::string, double U::*>> fields = {
      {"time", &U::time}, {"route_distance", &U::route_distance},
      {"speed", &U::speed}};
  for (const double bad : kBadValues) {
    std::vector<std::pair<std::string, core::PositionUpdate>> updates;
    for (const auto& [name, field] : fields) {
      core::PositionUpdate u = base;
      u.*field = bad;
      updates.emplace_back(name, u);
    }
    core::PositionUpdate x = base;
    x.position.x = bad;
    updates.emplace_back("position.x", x);
    core::PositionUpdate y = base;
    y.position.y = bad;
    updates.emplace_back("position.y", y);
    for (const auto& [name, update] : updates) {
      EXPECT_EQ(db.ApplyUpdate(update).code(),
                util::StatusCode::kInvalidArgument)
          << name << " = " << bad;
      const UpdateBatchResult batch = db.ApplyUpdateBatch({&update, 1});
      EXPECT_EQ(batch.applied, 0u) << name << " = " << bad;
      EXPECT_EQ(Fingerprint(db), before) << name << " = " << bad;
      const auto record = db.Get(1);
      ASSERT_TRUE(record.ok());
      EXPECT_EQ((*record)->attr.start_time, 0.0) << name << " = " << bad;
    }
  }
  // The finite update still applies.
  EXPECT_TRUE(db.ApplyUpdate(base).ok());
}

TEST_F(FiniteAttributeTest, SnapshotWithInfiniteSpeedIsRefused) {
  // The snapshot is text, and `operator>>` already fails on "inf", "nan"
  // and overflowing literals, so such a file is refused as malformed before
  // the reader's Insert sees it.
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "", Attr(10.0)).ok());
  core::PositionAttribute slow = Attr(20.0);
  slow.speed = 0.75;  // a token that appears nowhere else in the file
  ASSERT_TRUE(db.Insert(2, "", slow).ok());
  const std::string before = Fingerprint(db);
  std::ostringstream saved;
  ASSERT_TRUE(WriteSnapshot(db, saved).ok());
  const std::string text = saved.str();
  const std::size_t speed_at = text.find(" 0.75 ");
  ASSERT_NE(speed_at, std::string::npos);
  ASSERT_EQ(text.find(" 0.75 ", speed_at + 1), std::string::npos);
  for (const char* bad : {"inf", "-inf", "1e999", "nan"}) {
    std::string corrupt = text;
    corrupt.replace(speed_at + 1, 4, bad);
    std::istringstream in(corrupt);
    EXPECT_FALSE(ReadSnapshot(in).ok()) << bad;
  }
  std::istringstream intact(text);
  EXPECT_TRUE(ReadSnapshot(intact).ok());
  EXPECT_EQ(Fingerprint(db), before);
}

TEST_F(FiniteAttributeTest, NegativePolicyParametersAreRefused) {
  ModDatabase db(&network_);
  ASSERT_TRUE(db.Insert(1, "", Attr(10.0)).ok());
  const std::string before = Fingerprint(db);
  using A = core::PositionAttribute;
  const std::vector<std::pair<std::string, double A::*>> fields = {
      {"update_cost", &A::update_cost},
      {"max_speed", &A::max_speed},
      {"fixed_threshold", &A::fixed_threshold},
      {"period", &A::period},
      {"step_threshold", &A::step_threshold}};
  for (const auto& [name, field] : fields) {
    core::PositionAttribute attr = Attr(20.0);
    attr.*field = -20.0;
    EXPECT_EQ(db.Insert(2, "", attr).code(),
              util::StatusCode::kInvalidArgument)
        << name;
    std::vector<ModDatabase::BulkObject> batch;
    batch.push_back({3, "", Attr(30.0)});
    batch.push_back({4, "", attr});
    EXPECT_EQ(db.BulkInsert(std::move(batch)).code(),
              util::StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(db.RestoreTrajectory(1, {attr}).code(),
              util::StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(Fingerprint(db), before) << name;
  }
  // Zero is a valid value of every one of them.
  core::PositionAttribute zero = Attr(20.0);
  for (const auto& [name, field] : fields) zero.*field = 0.0;
  EXPECT_TRUE(db.Insert(2, "", zero).ok());
}

TEST_F(FiniteAttributeTest, SnapshotWithNegativeUpdateCostIsRefused) {
  // The counterexample the check closes: an ail object parked at s = 50
  // with cost -20 has the fast bound 2C/t < 0 (-20 at t = 2), so its
  // interval at t = 2 is [30, 50], while the band the route-band index and
  // the subscription join build from the bounds is the point s = 50.
  ModDatabase db(&network_);
  core::PositionAttribute parked = Attr(50.0);
  parked.speed = 0.0;
  parked.update_cost = 7.25;  // a token that appears nowhere else
  ASSERT_TRUE(db.Insert(1, "", parked).ok());
  std::ostringstream saved;
  ASSERT_TRUE(WriteSnapshot(db, saved).ok());
  std::string text = saved.str();
  const std::size_t cost_at = text.find(" 7.25 ");
  ASSERT_NE(cost_at, std::string::npos);
  ASSERT_EQ(text.find(" 7.25 ", cost_at + 1), std::string::npos);
  std::istringstream intact(text);
  EXPECT_TRUE(ReadSnapshot(intact).ok());
  text.replace(cost_at + 1, 4, "-20");
  std::istringstream in(text);
  EXPECT_FALSE(ReadSnapshot(in).ok());
}

}  // namespace
}  // namespace modb::db
