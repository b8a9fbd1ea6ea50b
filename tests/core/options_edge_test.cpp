// Edge cases of the analysis limits, result metadata, and small utilities
// not covered elsewhere.
#include <gtest/gtest.h>

#include <cmath>

#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "gen/paper_examples.hpp"

namespace rbs {
namespace {

/// Theorem 2 and Corollary 5 (at s = 2) under a breakpoint cap.
AnalysisReport capped_report(const TaskSet& set, std::size_t max_breakpoints) {
  AnalysisLimits limits;
  limits.max_breakpoints = max_breakpoints;
  return Analyzer()
      .analyze({set, 2.0, {.speedup = true, .reset = true, .lo = false}, limits})
      .value();
}

TEST(SpeedupLimitsTest, BreakpointCapReportsHonestError) {
  // Force the cap below convergence: the result must be marked inexact with
  // a non-negative error bound that still brackets the true value.
  const AnalysisReport capped = capped_report(table1_base(), 2);
  const AnalysisReport full = capped_report(table1_base(), kBreakpointBudget);
  EXPECT_FALSE(capped.s_min_exact);
  EXPECT_GE(capped.s_min_error_bound, 0.0);
  EXPECT_LE(full.s_min, capped.s_min + capped.s_min_error_bound + 1e-12);
  EXPECT_GE(full.s_min + 1e-12, capped.s_min);  // reported value is a lower witness
}

TEST(SpeedupLimitsTest, BreakpointCountReported) {
  const AnalysisReport r = capped_report(table1_base(), kBreakpointBudget);
  EXPECT_GT(r.speedup_breakpoints, 0u);
  EXPECT_LT(r.speedup_breakpoints, 1000u);  // hyperperiod 105: a few hundred max
}

TEST(ResetLimitsTest, BreakpointCapGivesConservativeInfinity) {
  const AnalysisReport r = capped_report(table1_base(), 1);
  EXPECT_FALSE(r.delta_r_exact);
  EXPECT_TRUE(std::isinf(r.delta_r));
}

TEST(ResetLimitsTest, BreakpointCountReported) {
  const AnalysisReport r = capped_report(table1_base(), kBreakpointBudget);
  EXPECT_GT(r.reset_breakpoints, 0u);
}

TEST(InfTicksTest, SentinelArithmeticSafe) {
  // The sentinel must survive the additions the analyses perform.
  EXPECT_TRUE(is_inf(kInfTicks));
  EXPECT_TRUE(is_inf(kInfTicks + kInfTicks / 2));  // no overflow into negatives
  EXPECT_FALSE(is_inf(kInfTicks - 1));
  EXPECT_GT(kInfTicks, Ticks{1} << 40);  // far above any realistic horizon
}

TEST(ModeNamesTest, StableStrings) {
  EXPECT_EQ(to_string(Mode::LO), "LO");
  EXPECT_EQ(to_string(Mode::HI), "HI");
  EXPECT_EQ(to_string(Criticality::LO), "LO");
  EXPECT_EQ(to_string(Criticality::HI), "HI");
}

TEST(Table1GoldenTest, AllProseFactsAtOnce) {
  // The single place asserting every reconstructed Table I fact together,
  // as a regression anchor for the whole analysis stack.
  const TaskSet base = table1_base();
  const TaskSet degraded = table1_degraded();
  EXPECT_NEAR(min_speedup_value(base), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(min_speedup_value(degraded), 12.0 / 13.0, 1e-12);
  EXPECT_NEAR(resetting_time_value(base, 2.0), 6.0, 1e-9);
  EXPECT_NEAR(resetting_time_value(base, 4.0 / 3.0), 9.0, 1e-9);
  const ImplicitSet skel = table1_implicit();
  EXPECT_EQ(skel.size(), 2u);
  EXPECT_NEAR(skel.u_hi_hi(), 5.0 / 7.0, 1e-12);
  EXPECT_NEAR(skel.u_lo_lo(), 2.0 / 15.0, 1e-12);
}

}  // namespace
}  // namespace rbs
