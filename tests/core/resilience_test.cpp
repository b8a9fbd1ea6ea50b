// Tests for the degraded-guarantee analysis (core/resilience.hpp) against
// the paper's worked example: s_min = 4/3 and Delta_R(2) = 6 for Table I.
#include "core/resilience.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
    EXPECT_NEAR(g.delta_r, degraded_resetting_time(set, 1.0, g.fallback), 1e-9);
  } else {
    EXPECT_TRUE(std::isinf(g.delta_r));
  }
}

TEST(BoostFaultMarginTest, MarginNeverExceedsNominalSMin) {
  const TaskSet set = table1_base();
  const BoostFaultMargin m = boost_fault_margin(set);
  EXPECT_NEAR(m.s_min, 4.0 / 3.0, 1e-6);
  EXPECT_LE(m.margin, m.s_min + 1e-9);
  // Table I has exactly one LO task (tau2, index 1).
  ASSERT_EQ(m.max_fallback.terminated.size(), 1u);
  EXPECT_EQ(m.max_fallback.terminated[0], 1u);
}

TEST(BoostFaultMarginTest, MarginSeparatesFeasibleFromHopeless) {
  const TaskSet set = table1_base();
  const BoostFaultMargin m = boost_fault_margin(set);
  EXPECT_TRUE(analyze_degraded(set, m.margin + 1e-6).feasible);
  const DegradedGuarantee hopeless = analyze_degraded(set, m.margin * 0.9);
  EXPECT_FALSE(hopeless.feasible);
  EXPECT_TRUE(std::isinf(hopeless.delta_r));
  EXPECT_TRUE(hopeless.hi_mode_misses_licensed);
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

TEST(InflateDetectionDelayTest, InflatesOnlyHiBudgets) {
  const TaskSet set = table1_base();  // tau1: C=(3,5), D(LO)=4
  const Expected<TaskSet> inflated = inflate_detection_delay(set, 1);
  ASSERT_TRUE(inflated.is_ok());
  EXPECT_EQ(inflated.value()[0].wcet(Mode::LO), 4);  // 3 + 1
  EXPECT_EQ(inflated.value()[0].wcet(Mode::HI), 5);  // unchanged
  EXPECT_EQ(inflated.value()[1].wcet(Mode::LO), 2);  // LO task untouched
  // Inflation trades HI-mode carry-over demand for LO-mode load: s_min may
  // move either way, but the LO-mode demand strictly grows.
  EXPECT_GT(inflated.value()[0].utilization(Mode::LO), set[0].utilization(Mode::LO));
}

TEST(InflateDetectionDelayTest, CapsAtHiWcetAndReportsBrokenModels) {
  // delta = 2 pushes tau1's C(LO) to 5 > D(LO) = 4: no guarantee survives.
  EXPECT_FALSE(inflate_detection_delay(table1_base(), 2));
  EXPECT_FALSE(inflate_detection_delay(table1_base(), -1));

  // With deadline slack the inflation caps at C(HI).
  const TaskSet roomy({McTask::hi("t", 1, 5, 6, 8, 8)});
  const Expected<TaskSet> inflated = inflate_detection_delay(roomy, 100);
  ASSERT_TRUE(inflated.is_ok());
  EXPECT_EQ(inflated.value()[0].wcet(Mode::LO), 5);
}

TEST(InflateDetectionDelayTest, ZeroDelayIsIdentity) {
  const TaskSet set = table1_base();
  const Expected<TaskSet> same = inflate_detection_delay(set, 0);
  ASSERT_TRUE(same.is_ok());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(same.value()[i].wcet(Mode::LO), set[i].wcet(Mode::LO));
    EXPECT_EQ(same.value()[i].wcet(Mode::HI), set[i].wcet(Mode::HI));
  }
}

TEST(DegradedResettingTimeTest, MatchesResetAnalysisOnReducedSet) {
  const TaskSet set = table1_base();
  EXPECT_NEAR(degraded_resetting_time(set, 2.0, {}), resetting_time_value(set, 2.0), 1e-9);

  const Expected<TaskSet> reduced = apply_termination(set, {1});
  ASSERT_TRUE(reduced.is_ok());
  FallbackPlan fallback;
  fallback.terminated = {1};
  EXPECT_NEAR(degraded_resetting_time(set, 2.0, fallback),
              resetting_time_value(reduced.value(), 2.0), 1e-9);

  // The caller's carry-over model reaches the fallback Delta_R: aborting the
  // terminated task's carry-over job shortens the dwell.
  AnalysisLimits discard;
  discard.discard_dropped_carryover = true;
  const double discarded = Analyzer(discard).analyze(reduced.value(), 2.0).value().delta_r;
  EXPECT_NEAR(degraded_resetting_time(set, 2.0, fallback, discard), discarded, 1e-9);
  EXPECT_LT(discarded, resetting_time_value(reduced.value(), 2.0));
}

TEST(DegradedResettingTimeTest, SlowerSpeedInflatesDwell) {
  const TaskSet set = table1_base();
  const double fast = degraded_resetting_time(set, 2.0, {});
  const double slow = degraded_resetting_time(set, 1.5, {});
  EXPECT_GT(slow, fast);
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
