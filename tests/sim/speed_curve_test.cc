#include "sim/speed_curve.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "util/rng.h"

namespace modb::sim {
namespace {

TEST(SpeedCurveTest, ConstantCurve) {
  const SpeedCurve c = SpeedCurve::Constant(2.0, 10.0);
  EXPECT_DOUBLE_EQ(c.duration(), 10.0);
  EXPECT_DOUBLE_EQ(c.SpeedAt(0.0), 2.0);
  EXPECT_DOUBLE_EQ(c.SpeedAt(9.9), 2.0);
  EXPECT_DOUBLE_EQ(c.DistanceAt(10.0), 20.0);
  EXPECT_DOUBLE_EQ(c.MaxSpeed(), 2.0);
  EXPECT_DOUBLE_EQ(c.MeanSpeed(), 2.0);
}

TEST(SpeedCurveTest, PiecewiseDistanceIntegral) {
  const SpeedCurve c({1.0, 0.0, 2.0}, 1.0);
  EXPECT_DOUBLE_EQ(c.DistanceAt(0.5), 0.5);
  EXPECT_DOUBLE_EQ(c.DistanceAt(1.0), 1.0);
  EXPECT_DOUBLE_EQ(c.DistanceAt(1.7), 1.0);  // stopped
  EXPECT_DOUBLE_EQ(c.DistanceAt(2.5), 2.0);
  EXPECT_DOUBLE_EQ(c.DistanceAt(3.0), 3.0);
  // Past the trip end: parked.
  EXPECT_DOUBLE_EQ(c.DistanceAt(100.0), 3.0);
  EXPECT_DOUBLE_EQ(c.SpeedAt(100.0), 0.0);
}

TEST(SpeedCurveTest, NegativeTimeAndEmptyCurve) {
  const SpeedCurve c({1.0}, 1.0);
  EXPECT_DOUBLE_EQ(c.SpeedAt(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(c.DistanceAt(-1.0), 0.0);
  const SpeedCurve empty;
  EXPECT_TRUE(empty.Empty());
  EXPECT_DOUBLE_EQ(empty.DistanceAt(5.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.MeanSpeed(), 0.0);
}

TEST(SpeedCurveTest, FractionalStep) {
  const SpeedCurve c({1.0, 3.0}, 0.5);
  EXPECT_DOUBLE_EQ(c.duration(), 1.0);
  EXPECT_DOUBLE_EQ(c.SpeedAt(0.25), 1.0);
  EXPECT_DOUBLE_EQ(c.SpeedAt(0.75), 3.0);
  EXPECT_DOUBLE_EQ(c.DistanceAt(1.0), 2.0);
}

TEST(SpeedCurveTest, DistanceIsMonotone) {
  util::Rng rng(3);
  const SpeedCurve c = MakeCityCurve(rng, CurveGenOptions{});
  double prev = 0.0;
  for (double t = 0.0; t <= c.duration(); t += 0.1) {
    const double d = c.DistanceAt(t);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

struct GeneratorCase {
  std::string name;
  SpeedCurve (*make)(util::Rng&, const CurveGenOptions&);
};

// Without this gtest prints the raw bytes of the case, function pointer
// included, so the listed test names would change from build to build.
void PrintTo(const GeneratorCase& c, std::ostream* os) { *os << c.name; }

class GeneratorTest : public testing::TestWithParam<GeneratorCase> {};

TEST_P(GeneratorTest, RespectsDurationAndSpeedCap) {
  util::Rng rng(11);
  CurveGenOptions options;
  options.duration = 60.0;
  options.max_speed = 1.5;
  for (int rep = 0; rep < 10; ++rep) {
    const SpeedCurve c = GetParam().make(rng, options);
    EXPECT_DOUBLE_EQ(c.duration(), 60.0);
    EXPECT_LE(c.MaxSpeed(), 1.5 + 1e-12);
    for (double v : c.speeds()) EXPECT_GE(v, 0.0);
  }
}

TEST_P(GeneratorTest, DeterministicPerSeed) {
  util::Rng a(21);
  util::Rng b(21);
  const SpeedCurve ca = GetParam().make(a, CurveGenOptions{});
  const SpeedCurve cb = GetParam().make(b, CurveGenOptions{});
  ASSERT_EQ(ca.speeds().size(), cb.speeds().size());
  for (std::size_t i = 0; i < ca.speeds().size(); ++i) {
    EXPECT_EQ(ca.speeds()[i], cb.speeds()[i]);
  }
}

TEST_P(GeneratorTest, VehicleActuallyMoves) {
  util::Rng rng(31);
  const SpeedCurve c = GetParam().make(rng, CurveGenOptions{});
  EXPECT_GT(c.DistanceAt(c.duration()), 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorTest,
    testing::Values(GeneratorCase{"highway", &MakeHighwayCurve},
                    GeneratorCase{"city", &MakeCityCurve},
                    GeneratorCase{"jam", &MakeTrafficJamCurve},
                    GeneratorCase{"rush", &MakeRushHourCurve}),
    [](const testing::TestParamInfo<GeneratorCase>& info) {
      return info.param.name;
    });

TEST(GeneratorCharacterTest, CityFluctuatesMoreThanHighway) {
  // The premise behind dl-vs-ail (paper §3.1): city speed fluctuates
  // sharply, highway speed mildly.
  util::Rng rng(41);
  double city_stops = 0.0;
  double highway_stops = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    const SpeedCurve city = MakeCityCurve(rng, CurveGenOptions{});
    const SpeedCurve highway = MakeHighwayCurve(rng, CurveGenOptions{});
    for (double v : city.speeds()) city_stops += v == 0.0 ? 1.0 : 0.0;
    for (double v : highway.speeds()) highway_stops += v == 0.0 ? 1.0 : 0.0;
  }
  EXPECT_GT(city_stops, 10.0 * (highway_stops + 1.0));
}

TEST(GeneratorCharacterTest, JamContainsLongSlowStretch) {
  util::Rng rng(51);
  const SpeedCurve jam = MakeTrafficJamCurve(rng, CurveGenOptions{});
  int longest_slow = 0;
  int current = 0;
  for (double v : jam.speeds()) {
    current = v < 0.3 ? current + 1 : 0;
    longest_slow = std::max(longest_slow, current);
  }
  EXPECT_GE(longest_slow, 5);
}

TEST(StandardSuiteTest, SizeAndNames) {
  util::Rng rng(61);
  const auto suite = MakeStandardSuite(rng, 3, CurveGenOptions{});
  ASSERT_EQ(suite.size(), 12u);
  EXPECT_EQ(suite[0].name, "highway-0");
  EXPECT_EQ(suite[3].name, "city-0");
  EXPECT_EQ(suite[6].name, "jam-0");
  EXPECT_EQ(suite[9].name, "rush-0");
  for (const auto& named : suite) {
    EXPECT_DOUBLE_EQ(named.curve.duration(), 60.0);
  }
}

}  // namespace
}  // namespace modb::sim
