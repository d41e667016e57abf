#include "util/retry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace modb::util {
namespace {

TEST(RetryPolicyTest, FirstDelayIsNearInitial) {
  RetryPolicy::Options options;
  options.initial_delay_ms = 100;
  options.jitter_fraction = 0.2;
  RetryPolicy policy(options);
  const std::uint64_t d = policy.NextDelayMs();
  EXPECT_GE(d, 80u);
  EXPECT_LE(d, 120u);
  EXPECT_EQ(policy.attempts(), 1u);
}

TEST(RetryPolicyTest, DelaysGrowGeometricallyAndCap) {
  RetryPolicy::Options options;
  options.initial_delay_ms = 10;
  options.max_delay_ms = 100;
  options.jitter_fraction = 0.0;  // exact values, no jitter
  RetryPolicy policy(options);
  EXPECT_EQ(policy.NextDelayMs(), 10u);
  EXPECT_EQ(policy.NextDelayMs(), 20u);
  EXPECT_EQ(policy.NextDelayMs(), 40u);
  EXPECT_EQ(policy.NextDelayMs(), 80u);
  EXPECT_EQ(policy.NextDelayMs(), 100u);  // clamped
  EXPECT_EQ(policy.NextDelayMs(), 100u);  // stays clamped
}

TEST(RetryPolicyTest, JitterStaysWithinFraction) {
  RetryPolicy::Options options;
  options.initial_delay_ms = 1000;
  options.max_delay_ms = 1000;  // constant base, isolates jitter
  options.jitter_fraction = 0.25;
  RetryPolicy policy(options);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t d = policy.NextDelayMs();
    EXPECT_GE(d, 750u) << "attempt " << i;
    EXPECT_LE(d, 1250u) << "attempt " << i;
  }
}

TEST(RetryPolicyTest, SameSeedSameDelays) {
  RetryPolicy::Options options;
  options.seed = 99;
  RetryPolicy a(options);
  RetryPolicy b(options);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.NextDelayMs(), b.NextDelayMs()) << "attempt " << i;
  }
}

TEST(RetryPolicyTest, DifferentSeedsDiverge) {
  RetryPolicy::Options a_opts;
  a_opts.seed = 1;
  RetryPolicy::Options b_opts;
  b_opts.seed = 2;
  RetryPolicy a(a_opts);
  RetryPolicy b(b_opts);
  bool diverged = false;
  for (int i = 0; i < 16; ++i) {
    if (a.NextDelayMs() != b.NextDelayMs()) diverged = true;
  }
  EXPECT_TRUE(diverged) << "distinct seeds should de-synchronise the fleet";
}

TEST(RetryPolicyTest, ResetReplaysTheSchedule) {
  RetryPolicy policy;
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 5; ++i) first.push_back(policy.NextDelayMs());
  policy.Reset();
  EXPECT_EQ(policy.attempts(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(policy.NextDelayMs(), first[static_cast<std::size_t>(i)])
        << "attempt " << i;
  }
}

}  // namespace
}  // namespace modb::util
