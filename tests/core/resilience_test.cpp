// Tests for the degraded-guarantee analysis (core/resilience.hpp) against
// the paper's worked example: s_min = 4/3 and Delta_R(2) = 6 for Table I.
#include "core/resilience.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "gen/paper_examples.hpp"

namespace rbs {
namespace {

TEST(AnalyzeDegradedTest, FullSpeedNeedsNoFallback) {
  const TaskSet set = table1_base();
  const DegradedGuarantee g = analyze_degraded(set, 2.0);
  EXPECT_TRUE(g.schedulable_unmodified);
  EXPECT_TRUE(g.feasible);
  EXPECT_FALSE(g.hi_mode_misses_licensed);
  EXPECT_EQ(g.fallback.tier(), 0u);
  EXPECT_NEAR(g.nominal_s_min, 4.0 / 3.0, 1e-6);
  EXPECT_NEAR(g.delta_r, 6.0, 1e-6);  // Example 2
}

TEST(AnalyzeDegradedTest, AtExactSMinStillSchedulable) {
  const TaskSet set = table1_base();
  const DegradedGuarantee g = analyze_degraded(set, min_speedup_value(set));
  EXPECT_TRUE(g.schedulable_unmodified);
  EXPECT_TRUE(std::isfinite(g.delta_r));
}

TEST(AnalyzeDegradedTest, BelowSMinLicensesMissesAndPicksFallback) {
  const TaskSet set = table1_base();
  const DegradedGuarantee g = analyze_degraded(set, 1.0);  // < 4/3
  EXPECT_FALSE(g.schedulable_unmodified);
  EXPECT_TRUE(g.hi_mode_misses_licensed);
  if (g.feasible) {
    EXPECT_GT(g.fallback.tier(), 0u);
    const Expected<TaskSet> reduced = apply_termination(set, g.fallback.terminated);
    ASSERT_TRUE(reduced.is_ok());
    EXPECT_TRUE(hi_mode_schedulable(reduced.value(), 1.0));
    EXPECT_LE(g.s_min_with_fallback, 1.0 + 1e-9);
    EXPECT_TRUE(std::isfinite(g.delta_r));
    EXPECT_NEAR(g.delta_r, resetting_time_value(reduced.value(), 1.0), 1e-9);
  } else {
    EXPECT_TRUE(std::isinf(g.delta_r));
  }
}

TEST(ApplyTerminationTest, TerminatesListedLoTasks) {
  const TaskSet set = table1_base();
  const Expected<TaskSet> reduced = apply_termination(set, {1});
  ASSERT_TRUE(reduced.is_ok());
  EXPECT_TRUE(reduced.value()[1].dropped_in_hi());
  EXPECT_EQ(reduced.value()[1].name(), "tau2");
  EXPECT_FALSE(reduced.value()[0].dropped_in_hi());
  // Termination weakly lowers the HI-mode demand, hence s_min.
  EXPECT_LE(min_speedup_value(reduced.value()), min_speedup_value(set) + 1e-9);
}

TEST(ApplyTerminationTest, RejectsBadIndexLists) {
  const TaskSet set = table1_base();
  EXPECT_FALSE(apply_termination(set, {0}));     // tau1 is HI-criticality
  EXPECT_FALSE(apply_termination(set, {1, 1}));  // duplicate
  EXPECT_FALSE(apply_termination(set, {7}));     // out of range
  EXPECT_TRUE(apply_termination(set, {}).is_ok());
}

TEST(DegradedResettingTimeTest, MatchesResetAnalysisOnReducedSet) {
  const TaskSet set = table1_base();
  // No fallback at full speed: the dwell is the set's own (Example 2).
  EXPECT_NEAR(analyze_degraded(set, 2.0).delta_r, resetting_time_value(set, 2.0), 1e-9);

  // Below s_min = 4/3 the fallback terminates tau2, and the dwell is that of
  // the reduced set apply_termination builds.
  constexpr double kSlow = 1.25;
  const DegradedGuarantee g = analyze_degraded(set, kSlow);
  ASSERT_EQ(g.fallback.terminated, std::vector<std::size_t>{1});
  const Expected<TaskSet> reduced = apply_termination(set, {1});
  ASSERT_TRUE(reduced.is_ok());
  EXPECT_NEAR(g.delta_r, resetting_time_value(reduced.value(), kSlow), 1e-9);
}

TEST(AnalyzeDegradedTest, DegradedExampleToleratesSlowdown) {
  // Example 1's degraded set has s_min = 12/13 < 1: even a boost stuck at
  // unit speed keeps the full guarantee.
  const TaskSet set = table1_degraded();
  const DegradedGuarantee g = analyze_degraded(set, 1.0);
  EXPECT_TRUE(g.schedulable_unmodified);
  EXPECT_FALSE(g.hi_mode_misses_licensed);
  EXPECT_NEAR(g.nominal_s_min, 12.0 / 13.0, 1e-6);
}

}  // namespace
}  // namespace rbs
