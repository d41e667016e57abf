// Tests of the step-deviation-cost analysis and the kStepThreshold policy
// (the paper's §3.1 alternative cost function, DESIGN.md §5 ablation 4).

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/bounds.h"
#include "core/policies/policies.h"
#include "core/thresholds.h"
#include "core/update_policy.h"
#include "sim/simulator.h"
#include "sim/speed_curve.h"
#include "util/rng.h"

namespace modb::core {
namespace {

TEST(StepCostPerTimeUnitTest, KnownValues) {
  // a=1, b=0, h=2, C=3, k=2: cycle 2, above-h time 0 -> cost 3/2.
  EXPECT_DOUBLE_EQ(StepCostPerTimeUnit(2.0, 1.0, 0.0, 2.0, 3.0), 1.5);
  // k=4: cycle 4, above-h time 2 -> cost (3+2)/4.
  EXPECT_DOUBLE_EQ(StepCostPerTimeUnit(4.0, 1.0, 0.0, 2.0, 3.0), 1.25);
}

TEST(StepCostPerTimeUnitTest, ApproachesOneForLargeK) {
  // Never updating costs 1 per time unit in the limit.
  EXPECT_NEAR(StepCostPerTimeUnit(1e9, 1.0, 2.0, 1.0, 5.0), 1.0, 1e-6);
}

TEST(StepCostShouldUpdateTest, BangBangRule) {
  // C < b + h/a -> update at h.
  EXPECT_TRUE(StepCostShouldUpdate(1.0, 2.0, 3.0, 4.0));   // 4 < 5
  EXPECT_FALSE(StepCostShouldUpdate(1.0, 2.0, 3.0, 6.0));  // 6 > 5
  EXPECT_FALSE(StepCostShouldUpdate(1.0, 0.0, 1.0, 1.0));  // 1 == 1: not <
}

// Property: the bang-bang rule picks the cheaper of "update at h" vs
// "never update" over a dense threshold sweep.
class StepCostOptimality
    : public testing::TestWithParam<std::tuple<double, double, double, double>> {
};

TEST_P(StepCostOptimality, RuleMatchesSweep) {
  const auto [a, b, h, C] = GetParam();
  const double update_at_h = StepCostPerTimeUnit(h, a, b, h, C);
  const double never = 1.0;  // limit cost rate
  double sweep_best = never;
  for (int i = 0; i <= 300; ++i) {
    const double k = h + (static_cast<double>(i) / 10.0);
    sweep_best = std::min(sweep_best, StepCostPerTimeUnit(k, a, b, h, C));
  }
  if (StepCostShouldUpdate(a, b, h, C)) {
    EXPECT_NEAR(sweep_best, update_at_h, 1e-9);
    EXPECT_LT(update_at_h, never);
  } else {
    // Never updating is at least as good as any finite threshold, up to
    // the sweep's finite horizon.
    EXPECT_GE(update_at_h, sweep_best - 1e-9);
    EXPECT_GE(sweep_best, std::min(1.0, update_at_h) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StepCostOptimality,
    testing::Combine(testing::Values(0.5, 1.0, 2.0),   // a
                     testing::Values(0.0, 1.0, 4.0),   // b
                     testing::Values(0.5, 2.0),        // h
                     testing::Values(0.5, 3.0, 10.0)));  // C

TEST(StepThresholdBoundTest, ActiveRegimeCapsAtH) {
  // C < h/rate: guaranteed update-at-h regime.
  EXPECT_DOUBLE_EQ(StepThresholdBound(1.0, 3.0, 2.0, 1.0), 1.0);  // rate*t
  EXPECT_DOUBLE_EQ(StepThresholdBound(1.0, 3.0, 2.0, 10.0), 3.0);  // h
}

TEST(StepThresholdBoundTest, SilentRegimeGrowsLinearly) {
  // C >= h/rate: the policy may stay silent; only rate*t holds.
  EXPECT_DOUBLE_EQ(StepThresholdBound(1.0, 3.0, 5.0, 10.0), 10.0);
}

TEST(StepThresholdBoundTest, DegenerateInputs) {
  EXPECT_EQ(StepThresholdBound(0.0, 1.0, 1.0, 5.0), 0.0);
  EXPECT_EQ(StepThresholdBound(1.0, 1.0, 1.0, 0.0), 0.0);
}

PolicyConfig StepConfig(double h, double C) {
  PolicyConfig config;
  config.kind = PolicyKind::kStepThreshold;
  config.step_threshold = h;
  config.update_cost = C;
  config.max_speed = 1.5;
  return config;
}

TEST(StepThresholdPolicyTest, UpdatesAtThresholdWhenWorthIt) {
  // Example-1 pattern: drive 2 min, stop. h=1.5, C=2: fitted b=2, a=1 ->
  // C=2 < b + h/a = 3.5 -> update once deviation reaches h.
  const auto policy = MakePolicy(StepConfig(1.5, 2.0));
  DeviationTracker tracker;
  tracker.Reset(0.0, 0.0);
  tracker.Observe(1.0, 0.0, 1.0, 1.0);
  tracker.Observe(2.0, 0.0, 2.0, 1.0);
  tracker.Observe(3.0, 1.0, 2.0, 0.0);
  EXPECT_FALSE(policy->Decide(tracker, 3.0, 0.0).has_value());  // below h
  tracker.Observe(4.0, 2.0, 2.0, 0.0);
  EXPECT_TRUE(policy->Decide(tracker, 4.0, 0.0).has_value());
}

TEST(StepThresholdPolicyTest, StaysSilentWhenUpdateTooExpensive) {
  // h=1, fitted b=0 (deviation grows immediately), a=1: b + h/a = 1; with
  // C=5 the update never pays off.
  const auto policy = MakePolicy(StepConfig(1.0, 5.0));
  DeviationTracker tracker;
  tracker.Reset(0.0, 0.0);
  for (double t = 1.0; t <= 20.0; t += 1.0) {
    tracker.Observe(t, t, t, 1.0);
    EXPECT_FALSE(policy->Decide(tracker, t, 1.0).has_value()) << t;
  }
}

TEST(StepThresholdPolicyTest, SimulationRespectsBound) {
  util::Rng rng(77);
  sim::SimulationOptions sim_options;
  for (double C : {0.5, 2.0, 10.0}) {
    PolicyConfig config = StepConfig(1.0, C);
    for (int rep = 0; rep < 5; ++rep) {
      const sim::SpeedCurve curve =
          sim::MakeCityCurve(rng, sim::CurveGenOptions{});
      const sim::RunMetrics m =
          sim::SimulatePolicyOnCurve(curve, config, sim_options);
      EXPECT_EQ(m.bound_violations, 0u) << "C=" << C << " rep=" << rep;
    }
  }
}

TEST(StepThresholdPolicyTest, StepCostBeatsUniformPoliciesOnStepMetric) {
  // On the metric it optimises (step cost with threshold h), the step
  // policy should not lose to the uniform-cost dl policy.
  util::Rng rng(88);
  const StepDeviationCost step_cost(1.0);
  sim::SimulationOptions sim_options;
  sim_options.cost_function = &step_cost;
  double step_total = 0.0;
  double dl_total = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    const sim::SpeedCurve curve =
        sim::MakeCityCurve(rng, sim::CurveGenOptions{});
    PolicyConfig step_config = StepConfig(1.0, 5.0);
    PolicyConfig dl_config;
    dl_config.kind = PolicyKind::kDelayedLinear;
    dl_config.update_cost = 5.0;
    dl_config.max_speed = 1.5;
    step_total +=
        sim::SimulatePolicyOnCurve(curve, step_config, sim_options).total_cost;
    dl_total +=
        sim::SimulatePolicyOnCurve(curve, dl_config, sim_options).total_cost;
  }
  EXPECT_LE(step_total, dl_total * 1.05);
}

TEST(StepPolicyBoundDispatchTest, AttributeDispatch) {
  PositionAttribute attr;
  attr.policy = PolicyKind::kStepThreshold;
  attr.speed = 1.0;
  attr.max_speed = 1.5;
  attr.update_cost = 2.0;
  attr.step_threshold = 3.0;
  // C=2 < h/v=3 -> capped at h.
  EXPECT_DOUBLE_EQ(SlowDeviationBound(attr, 10.0), 3.0);
  // Fast rate 0.5: C=2 < 3/0.5=6 -> capped at h as well.
  EXPECT_DOUBLE_EQ(FastDeviationBound(attr, 10.0), 3.0);
  const CriticalTimes critical = BoundCriticalTimes(attr);
  ASSERT_EQ(critical.size(), 2u);  // h/v = 3 and h/(V-v) = 6
}

}  // namespace
}  // namespace modb::core
