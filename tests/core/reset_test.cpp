// Tests for the service resetting time (Theorem 4 / Corollary 5).
#include "core/reset.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/adb.hpp"
#include "core/left_limits.hpp"
#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

/// The Corollary 5 part of the facade alone, optionally aborting the
/// carry-over jobs of terminated LO tasks.
AnalysisReport reset_report(const TaskSet& set, double s, bool discard = false) {
  AnalysisLimits limits;
  limits.discard_dropped_carryover = discard;
  return Analyzer()
      .analyze({set, s, 1.0, {.speedup = false, .reset = true, .lo = false}, limits})
      .value();
}

TEST(ResetTest, Table1AtSpeedTwoIsSix) {
  // Example 2: "if s is increased to 2, then the service resetting time can
  // be reduced to 6".
  const AnalysisReport r = reset_report(table1_base(), 2.0);
  EXPECT_TRUE(r.delta_r_exact);
  EXPECT_NEAR(r.delta_r, 6.0, 1e-9);
}

TEST(ResetTest, Table1AtMinimumSpeedupIsNine) {
  EXPECT_NEAR(resetting_time_value(table1_base(), 4.0 / 3.0), 9.0, 1e-9);
}

TEST(ResetTest, HandComputedCrossingInsideSegment) {
  // tau1 of Table I alone at s = 2: ADB is the constant 5 on [0, 3) (one
  // full C(HI), carry-over residual not yet due), so the supply line 2*Delta
  // crosses mid-segment at Delta = 2.5.
  const TaskSet set({McTask::hi("h", 3, 5, 4, 7, 7)});
  EXPECT_NEAR(resetting_time_value(set, 2.0), 2.5, 1e-9);
}

TEST(ResetTest, MonotoneDecreasingInSpeed) {
  const TaskSet set = table1_base();
  double prev = std::numeric_limits<double>::infinity();
  for (double s : {1.1, 4.0 / 3.0, 1.5, 2.0, 2.5, 3.0, 4.0}) {
    const double dr = resetting_time_value(set, s);
    EXPECT_LE(dr, prev + 1e-9) << "s=" << s;
    EXPECT_TRUE(std::isfinite(dr)) << "s=" << s;
    prev = dr;
  }
}

TEST(ResetTest, InfiniteAtOrBelowHiUtilization) {
  const TaskSet set = table1_base();
  const double u_hi = set.total_utilization(Mode::HI);
  EXPECT_TRUE(std::isinf(resetting_time_value(set, u_hi)));
  EXPECT_TRUE(std::isinf(resetting_time_value(set, 0.5 * u_hi)));
  EXPECT_TRUE(std::isfinite(resetting_time_value(set, u_hi + 0.05)));
}

TEST(ResetTest, EmptySetResetsImmediately) {
  EXPECT_DOUBLE_EQ(resetting_time_value(TaskSet{}, 1.0), 0.0);
}

TEST(ResetTest, AllDroppedCarryOverOnly) {
  // Only the carry-over jobs need to finish: Delta_R = sum C / s.
  const TaskSet set({McTask::lo_terminated("a", 2, 10, 10),
                     McTask::lo_terminated("b", 3, 20, 20)});
  EXPECT_NEAR(resetting_time_value(set, 2.0), 5.0 / 2.0, 1e-9);
  // Discarding the carry-over makes the reset instantaneous.
  EXPECT_DOUBLE_EQ(reset_report(set, 2.0, /*discard=*/true).delta_r, 0.0);
}

TEST(ResetTest, DiscardingCarryOverNeverDelaysReset) {
  const TaskSet set({McTask::hi("h", 3, 5, 4, 7, 7),
                     McTask::lo_terminated("l", 2, 15, 15)});
  for (double s : {1.0, 1.5, 2.0, 3.0})
    EXPECT_LE(reset_report(set, s, /*discard=*/true).delta_r,
              resetting_time_value(set, s) + 1e-9);
}

TEST(ResetTest, DegradationShortensReset) {
  // Example 2: "if service degradation is enabled in parallel to processor
  // speedup, the service resetting time can be further reduced".
  for (double s : {1.5, 2.0, 3.0})
    EXPECT_LE(resetting_time_value(table1_degraded(), s),
              resetting_time_value(table1_base(), s) + 1e-9);
}

TEST(ResetTest, ResultSatisfiesDefinition) {
  // At the reported Delta_R the condition ADB <= s*Delta holds (evaluating
  // the piecewise-linear ADB by interpolation between integer breakpoints),
  // and it fails at every earlier integer point (minimality).
  const TaskSet set = table1_base();
  for (double s : {4.0 / 3.0, 1.7, 2.0, 2.9}) {
    const double dr = resetting_time_value(set, s);
    ASSERT_TRUE(std::isfinite(dr));
    const auto lo = static_cast<Ticks>(std::floor(dr));
    const auto hi = static_cast<Ticks>(std::ceil(dr));
    double adb_at_dr;
    if (lo == hi) {
      adb_at_dr = static_cast<double>(adb_hi_total(set, lo));
    } else {
      // Breakpoints are integral, so ADB is linear on (lo, hi): interpolate
      // between the value at lo and the left limit at hi.
      const auto v0 = static_cast<double>(adb_hi_total(set, lo));
      const auto v1 = static_cast<double>(adb_hi_total_left(set, hi));
      adb_at_dr = v0 + (v1 - v0) * (dr - static_cast<double>(lo));
    }
    EXPECT_LE(adb_at_dr, s * dr + 1e-6) << "s=" << s;
    // ...and the condition fails strictly before Delta_R.
    for (Ticks d = 0; d < lo; ++d)
      EXPECT_GT(static_cast<double>(adb_hi_total(set, d)), s * static_cast<double>(d) - 1e-6)
          << "s=" << s << " d=" << d;
  }
}

TEST(ResetTest, RandomSetsFiniteAboveUtilization) {
  Rng rng(11);
  GenParams params;
  params.u_bound = 0.6;
  for (int trial = 0; trial < 20; ++trial) {
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const TaskSet set = skeleton->materialize(0.5, 2.0);
    const double u_hi = set.total_utilization(Mode::HI);
    const AnalysisReport r = reset_report(set, u_hi + 0.3);
    EXPECT_TRUE(r.delta_r_exact);
    EXPECT_TRUE(std::isfinite(r.delta_r));
    EXPECT_GT(r.delta_r, 0.0);
  }
}

TEST(ResetTest, HigherSpeedupHelpsOnRandomSets) {
  Rng rng(13);
  GenParams params;
  params.u_bound = 0.5;
  for (int trial = 0; trial < 10; ++trial) {
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const TaskSet set = skeleton->materialize(0.5, 2.0);
    EXPECT_LE(resetting_time_value(set, 3.0), resetting_time_value(set, 2.0) + 1e-9);
  }
}

}  // namespace
}  // namespace rbs
