#include "core/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace modb::core {
namespace {

// Paper Example 1 (continued) constants: C = 5 cents, P.speed v = 1 mi/min,
// maximum speed V = 1.5 mi/min.
constexpr double kC = 5.0;
constexpr double kV = 1.5;
constexpr double kSpeed = 1.0;

TEST(DlBoundsTest, PaperExample1SlowBound) {
  // "the bound on the slow-deviation increases at the rate of 1 mile per
  //  minute for the first 3 minutes ... after that it remains constant at
  //  3.16 miles" (sqrt(2vC) = sqrt(10)).
  EXPECT_DOUBLE_EQ(DlSlowBound(kSpeed, kC, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(DlSlowBound(kSpeed, kC, 3.0), 3.0);
  EXPECT_NEAR(DlSlowBound(kSpeed, kC, 4.0), std::sqrt(10.0), 1e-12);
  EXPECT_NEAR(DlSlowBound(kSpeed, kC, 10.0), 3.16, 0.01);
  EXPECT_NEAR(DlSlowBound(kSpeed, kC, 15.0), DlSlowBound(kSpeed, kC, 10.0),
              1e-12);
}

TEST(DlBoundsTest, PaperExample1FastBound) {
  // "the fast-deviation increases at the rate of 0.5 miles per minute for
  //  the first 4.5 minutes ... after that it remains constant at 2.24
  //  miles" (sqrt(2*0.5*5) = sqrt(5)).
  EXPECT_DOUBLE_EQ(DlFastBound(kV, kSpeed, kC, 2.0), 1.0);
  EXPECT_NEAR(DlFastBound(kV, kSpeed, kC, 4.472), 2.236, 0.001);
  EXPECT_NEAR(DlFastBound(kV, kSpeed, kC, 10.0), std::sqrt(5.0), 1e-12);
  EXPECT_NEAR(DlFastBound(kV, kSpeed, kC, 10.0), 2.24, 0.01);
}

TEST(DlBoundsTest, CombinedBoundUsesDominantRate) {
  // Corollary 1: D = max{v, V - v} = 1.
  EXPECT_DOUBLE_EQ(DlBound(kV, kSpeed, kC, 2.0), 2.0);
  EXPECT_NEAR(DlBound(kV, kSpeed, kC, 100.0), std::sqrt(10.0), 1e-12);
}

TEST(DlBoundsTest, ZeroAtZeroTime) {
  EXPECT_EQ(DlSlowBound(kSpeed, kC, 0.0), 0.0);
  EXPECT_EQ(DlFastBound(kV, kSpeed, kC, 0.0), 0.0);
  EXPECT_EQ(DlBound(kV, kSpeed, kC, 0.0), 0.0);
}

TEST(DlBoundsTest, ZeroRateGivesZeroBound) {
  EXPECT_EQ(DlSlowBound(0.0, kC, 10.0), 0.0);
  // Database speed equals max speed: no fast deviation possible.
  EXPECT_EQ(DlFastBound(1.0, 1.0, kC, 10.0), 0.0);
  // Database speed above the declared max clamps instead of going negative.
  EXPECT_EQ(DlFastBound(1.0, 2.0, kC, 10.0), 0.0);
}

TEST(DlBoundsTest, NeverDecreasesOverTime) {
  double prev = 0.0;
  for (double t = 0.0; t <= 20.0; t += 0.25) {
    const double b = DlSlowBound(kSpeed, kC, t);
    EXPECT_GE(b, prev - 1e-12);
    prev = b;
  }
}

TEST(IlBoundsTest, PaperExample1SlowBound) {
  // "the bound on the slow-deviation increases at the rate of 1 mile per
  //  minute for the first 3 minutes ... after that it decreases, i.e. for
  //  t >= 4, it is 10/t."
  EXPECT_DOUBLE_EQ(IlSlowBound(kSpeed, kC, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(IlSlowBound(kSpeed, kC, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(IlSlowBound(kSpeed, kC, 4.0), 2.5);    // 10/4
  EXPECT_DOUBLE_EQ(IlSlowBound(kSpeed, kC, 10.0), 1.0);   // 10/10
  EXPECT_DOUBLE_EQ(IlSlowBound(kSpeed, kC, 20.0), 0.5);
}

TEST(IlBoundsTest, PaperExample1FastBound) {
  // Fast: rate 0.5 for the first 4.5 minutes, then 10/t.
  EXPECT_DOUBLE_EQ(IlFastBound(kV, kSpeed, kC, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(IlFastBound(kV, kSpeed, kC, 5.0), 2.0);   // 10/5
  EXPECT_DOUBLE_EQ(IlFastBound(kV, kSpeed, kC, 10.0), 1.0);
}

TEST(IlBoundsTest, BoundDecreasesAfterPeak) {
  // The paper's "surprising positive result": after t* = sqrt(2C/D) the
  // uncertainty shrinks as time-since-update grows.
  const double peak = IlSlowBoundPeakTime(kSpeed, kC);
  EXPECT_NEAR(peak, std::sqrt(10.0), 1e-12);
  double prev = IlSlowBound(kSpeed, kC, peak);
  for (double t = peak + 0.5; t <= 30.0; t += 0.5) {
    const double b = IlSlowBound(kSpeed, kC, t);
    EXPECT_LT(b, prev);
    prev = b;
  }
}

TEST(IlBoundsTest, PeakTimes) {
  EXPECT_NEAR(IlFastBoundPeakTime(kV, kSpeed, kC), std::sqrt(20.0), 1e-12);
  EXPECT_TRUE(std::isinf(IlSlowBoundPeakTime(0.0, kC)));
  EXPECT_TRUE(std::isinf(IlFastBoundPeakTime(1.0, 1.0, kC)));
}

TEST(IlBoundsTest, PeakValueMatchesBothBranches) {
  const double t_star = IlSlowBoundPeakTime(kSpeed, kC);
  EXPECT_NEAR(IlSlowBound(kSpeed, kC, t_star), kSpeed * t_star, 1e-9);
  EXPECT_NEAR(IlSlowBound(kSpeed, kC, t_star), 2.0 * kC / t_star, 1e-9);
}

TEST(IlBoundsTest, CombinedBound) {
  EXPECT_DOUBLE_EQ(IlBound(kV, kSpeed, kC, 2.0), 2.0);   // D t with D = 1
  EXPECT_DOUBLE_EQ(IlBound(kV, kSpeed, kC, 10.0), 1.0);  // 2C/t
}

TEST(IlBoundsTest, IlBoundNeverExceedsDlBound) {
  // min{2C/t, Dt} <= min{sqrt(2DC), Dt}: the immediate policies' bound is
  // uniformly at least as tight — the reason the paper calls ail superior.
  for (double t = 0.1; t <= 40.0; t += 0.1) {
    EXPECT_LE(IlBound(kV, kSpeed, kC, t), DlBound(kV, kSpeed, kC, t) + 1e-12);
  }
}

PositionAttribute AttrWithPolicy(PolicyKind kind) {
  PositionAttribute attr;
  attr.speed = kSpeed;
  attr.update_cost = kC;
  attr.max_speed = kV;
  attr.policy = kind;
  attr.fixed_threshold = 2.0;
  attr.period = 3.0;
  return attr;
}

TEST(PolicyBoundDispatchTest, DelayedLinear) {
  const PositionAttribute attr = AttrWithPolicy(PolicyKind::kDelayedLinear);
  EXPECT_DOUBLE_EQ(SlowDeviationBound(attr, 2.0), DlSlowBound(kSpeed, kC, 2.0));
  EXPECT_DOUBLE_EQ(FastDeviationBound(attr, 2.0),
                   DlFastBound(kV, kSpeed, kC, 2.0));
  EXPECT_DOUBLE_EQ(DeviationBound(attr, 2.0),
                   std::max(SlowDeviationBound(attr, 2.0),
                            FastDeviationBound(attr, 2.0)));
}

TEST(PolicyBoundDispatchTest, ImmediatePolicies) {
  for (PolicyKind kind : {PolicyKind::kAverageImmediateLinear,
                          PolicyKind::kCurrentImmediateLinear}) {
    const PositionAttribute attr = AttrWithPolicy(kind);
    EXPECT_DOUBLE_EQ(SlowDeviationBound(attr, 8.0),
                     IlSlowBound(kSpeed, kC, 8.0));
    EXPECT_DOUBLE_EQ(FastDeviationBound(attr, 8.0),
                     IlFastBound(kV, kSpeed, kC, 8.0));
  }
}

TEST(PolicyBoundDispatchTest, HybridUsesDlEnvelope) {
  const PositionAttribute attr = AttrWithPolicy(PolicyKind::kHybridAdaptive);
  EXPECT_DOUBLE_EQ(SlowDeviationBound(attr, 8.0), DlSlowBound(kSpeed, kC, 8.0));
}

TEST(PolicyBoundDispatchTest, FixedThreshold) {
  const PositionAttribute attr = AttrWithPolicy(PolicyKind::kFixedThreshold);
  // Dead reckoning: bounded by B = 2 and by the growth rate.
  EXPECT_DOUBLE_EQ(SlowDeviationBound(attr, 1.0), 1.0);  // v t
  EXPECT_DOUBLE_EQ(SlowDeviationBound(attr, 10.0), 2.0);  // B
  EXPECT_DOUBLE_EQ(FastDeviationBound(attr, 10.0), 2.0);
  // The fixed bound never shrinks — contrast with the il policies.
  EXPECT_DOUBLE_EQ(SlowDeviationBound(attr, 100.0), 2.0);
}

TEST(PolicyBoundDispatchTest, Periodic) {
  const PositionAttribute attr = AttrWithPolicy(PolicyKind::kPeriodic);
  // The database position is static: nothing to lag behind.
  EXPECT_EQ(SlowDeviationBound(attr, 2.0), 0.0);
  // Ahead by at most V * min(t, period).
  EXPECT_DOUBLE_EQ(FastDeviationBound(attr, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(FastDeviationBound(attr, 10.0), 4.5);  // V * period
}

TEST(BoundCriticalTimesTest, ImmediateFamily) {
  const PositionAttribute attr =
      AttrWithPolicy(PolicyKind::kAverageImmediateLinear);
  const CriticalTimes times = BoundCriticalTimes(attr);
  ASSERT_EQ(times.size(), 2u);
  // sqrt(2C/v) = sqrt(10) and sqrt(2C/(V-v)) = sqrt(20).
  EXPECT_NEAR(std::min(times[0], times[1]), std::sqrt(10.0), 1e-12);
  EXPECT_NEAR(std::max(times[0], times[1]), std::sqrt(20.0), 1e-12);
}

TEST(BoundCriticalTimesTest, FixedAndPeriodic) {
  const PositionAttribute fixed = AttrWithPolicy(PolicyKind::kFixedThreshold);
  const CriticalTimes ft = BoundCriticalTimes(fixed);
  ASSERT_EQ(ft.size(), 2u);  // B/v = 2 and B/(V-v) = 4
  const PositionAttribute periodic = AttrWithPolicy(PolicyKind::kPeriodic);
  const CriticalTimes pt = BoundCriticalTimes(periodic);
  ASSERT_EQ(pt.size(), 1u);
  EXPECT_DOUBLE_EQ(pt[0], 3.0);
}

TEST(BoundCriticalTimesTest, DropsDegenerateEntries) {
  PositionAttribute attr = AttrWithPolicy(PolicyKind::kDelayedLinear);
  attr.speed = 0.0;
  attr.max_speed = 0.0;
  EXPECT_TRUE(BoundCriticalTimes(attr).empty());
}

}  // namespace
}  // namespace modb::core
