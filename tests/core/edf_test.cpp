// Tests for the LO-mode processor-demand test.
#include "core/edf.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/dbf.hpp"
#include "gen/paper_examples.hpp"

namespace rbs {
namespace {

TEST(EdfTest, EmptySetSchedulable) { EXPECT_TRUE(lo_mode_schedulable(TaskSet{})); }

TEST(EdfTest, SingleImplicitTaskAlwaysSchedulable) {
  EXPECT_TRUE(lo_mode_schedulable(TaskSet({McTask::lo("l", 10, 10, 10)})));
}

TEST(EdfTest, OverUtilizedSetRejected) {
  const TaskSet set({McTask::lo("a", 6, 10, 10), McTask::lo("b", 6, 10, 10)});
  const EdfTestResult r = lo_mode_test(set);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
}

TEST(EdfTest, FullUtilizationImplicitDeadlinesSchedulable) {
  // U == 1 with implicit deadlines: EDF schedulable (bound_slack == 0 path).
  const TaskSet set({McTask::lo("a", 5, 10, 10), McTask::lo("b", 10, 20, 20)});
  EXPECT_TRUE(lo_mode_schedulable(set));
}

TEST(EdfTest, ConstrainedDeadlineViolationFound) {
  // Two tasks, each C=2, D=2, T=100: at delta=2 demand is 4 > 2.
  const TaskSet set({McTask::lo("a", 2, 2, 100), McTask::lo("b", 2, 2, 100)});
  const EdfTestResult r = lo_mode_test(set);
  EXPECT_FALSE(r.schedulable);
  EXPECT_EQ(r.violation_delta, 2);
}

TEST(EdfTest, ViolationWitnessIsReal) {
  const TaskSet set({McTask::lo("a", 3, 4, 10), McTask::lo("b", 3, 4, 10),
                     McTask::lo("c", 2, 6, 12)});
  const EdfTestResult r = lo_mode_test(set);
  if (!r.schedulable && r.violation_delta > 0)
    EXPECT_GT(dbf_lo_total(set, r.violation_delta), r.violation_delta);
}

TEST(EdfTest, HiTasksUseLoDeadlinesInLoMode) {
  // The shortened (virtual) deadline makes an otherwise-fine set infeasible.
  const TaskSet tight({McTask::hi("h", 5, 5, 5, 10, 10), McTask::lo("l", 3, 6, 10)});
  EXPECT_FALSE(lo_mode_schedulable(tight));
  const TaskSet loose({McTask::hi("h", 5, 5, 10, 10, 10), McTask::lo("l", 3, 6, 10)});
  EXPECT_TRUE(lo_mode_schedulable(loose));
}

TEST(EdfTest, SpeedParameterScalesSupply) {
  const TaskSet set({McTask::lo("a", 2, 2, 100), McTask::lo("b", 2, 2, 100)});
  EXPECT_FALSE(lo_mode_schedulable(set, 1.0));
  EXPECT_TRUE(lo_mode_schedulable(set, 2.0));
}

TEST(EdfTest, Table1SetsSchedulable) {
  EXPECT_TRUE(lo_mode_schedulable(table1_base()));
  EXPECT_TRUE(lo_mode_schedulable(table1_degraded()));
}

TEST(EdfTest, BruteForceAgreementOnSmallSets) {
  // Exhaustive demand check over a long window must agree with the bounded
  // test for every deadline/period combination of this small family.
  for (Ticks d1 = 2; d1 <= 6; ++d1)
    for (Ticks c1 = 1; c1 <= d1; ++c1)
      for (Ticks c2 = 1; c2 <= 4; ++c2) {
        const TaskSet set({McTask::lo("a", c1, d1, 7), McTask::lo("b", c2, 4, 9)});
        const bool fast = lo_mode_schedulable(set);
        bool brute = set.total_utilization(Mode::LO) <= 1.0;
        if (brute) {
          for (Ticks delta = 1; delta <= 7 * 9 * 4; ++delta)
            if (dbf_lo_total(set, delta) > delta) {
              brute = false;
              break;
            }
        }
        EXPECT_EQ(fast, brute) << "c1=" << c1 << " d1=" << d1 << " c2=" << c2;
      }
}

TEST(EdfTest, DroppedTasksStillCountInLoMode) {
  // Termination only affects HI mode; LO-mode demand is unchanged.
  const TaskSet a({McTask::lo("l", 2, 2, 100), McTask::lo("m", 2, 2, 100)});
  const TaskSet b({McTask::lo_terminated("l", 2, 2, 100),
                   McTask::lo_terminated("m", 2, 2, 100)});
  EXPECT_EQ(lo_mode_schedulable(a), lo_mode_schedulable(b));
}

// --- boundary-schedulability regressions (tolerance policy, PR 2) ---------
// Demand-based MC analysis lives on exact breakpoints: "slack exactly 0"
// is a reachable state, and raw float == / < flips verdicts there. These
// pin the tolerance-routed behavior of the U-vs-speed trichotomy and the
// zero-slack degenerate branch (support/tolerance.hpp).

TEST(EdfBoundaryTest, ExactFullUtilizationStaysSchedulable) {
  // U == speed exactly, implicit deadlines: bound_slack is exactly 0 and the
  // degenerate branch must report schedulable, not walk an infinite window.
  const TaskSet set({McTask::lo("a", 1, 2, 2), McTask::lo("b", 1, 2, 2)});
  const EdfTestResult r = lo_mode_test(set);
  EXPECT_TRUE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
}

TEST(EdfBoundaryTest, InexactFullUtilizationStaysSchedulable) {
  // Ten C/T = 1/10 tasks: the mathematical utilization is 1 but the
  // accumulated double is 0.999...9 (an ulp short -- ten adds of 0.1).
  // Without the speed tolerance this falls into the bounded-window branch
  // with a bogus ~1e16-tick window; with it, the degenerate branch applies.
  std::vector<McTask> tasks;
  for (int i = 0; i < 10; ++i)
    tasks.push_back(McTask::lo("t" + std::to_string(i), 1, 10, 10));
  const TaskSet set(tasks);
  const double u = set.total_utilization(Mode::LO);
  ASSERT_TRUE(u < 1.0);  // the premise: the accumulated U is an ulp short
  const EdfTestResult r = lo_mode_test(set);
  EXPECT_TRUE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
  EXPECT_LT(r.breakpoints_visited, 100u);
}

TEST(EdfBoundaryTest, ZeroSlackWitnessPointStaysSchedulable) {
  // U = 0.75 < 1, but demand(2) = 2 = supply(2) exactly: slack is 0 at the
  // witness breakpoint and the set must remain schedulable.
  const TaskSet set({McTask::lo("a", 2, 2, 4), McTask::lo("b", 1, 4, 4)});
  const EdfTestResult r = lo_mode_test(set);
  EXPECT_TRUE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
}

TEST(EdfBoundaryTest, DefinitelyOverloadedStillRejected) {
  // The tolerance must not absorb genuine overload: U = 1.2 > 1.
  const TaskSet set({McTask::lo("a", 6, 10, 10), McTask::lo("b", 6, 10, 10)});
  const EdfTestResult r = lo_mode_test(set);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
}

/// U = 1/3 + 1/3 + 1/3 equals the speed and one deadline is constrained:
/// L_a degenerates. The synchronous busy period ends at 180 ticks, and the
/// set is schedulable.
TaskSet full_utilization_constrained() {
  return TaskSet({McTask::lo("a", 10, 25, 30), McTask::lo("b", 20, 60, 60),
                  McTask::lo("c", 30, 90, 90)});
}

/// U = 2/3 + 0.333333334 exceeds 1 by 6.7e-10, inside kSpeedTol; every
/// deadline is implicit. With one tick less, U falls short of 1 instead.
TaskSet full_utilization_plus(Ticks extra) {
  return TaskSet({McTask::lo("a", 1, 3, 3), McTask::lo("b", 1, 3, 3),
                  McTask::lo("c", 333'333'333 + extra, 1'000'000'000, 1'000'000'000)});
}

TEST(EdfBoundaryTest, FullUtilizationWithConstrainedDeadlineIsDecided) {
  // The window is the hyperperiod H = 180, which bounds the busy period:
  // ten step points, not the whole breakpoint budget.
  const EdfTestResult r = lo_mode_test(full_utilization_constrained());
  EXPECT_TRUE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
  EXPECT_EQ(r.breakpoints_visited, 10u);
  const AnalysisReport report =
      analyze({full_utilization_constrained(), 1.0, 1.0,
               {.speedup = false, .reset = false, .lo = true}, {}})
          .value();
  EXPECT_TRUE(report.lo_schedulable);
  EXPECT_EQ(report.lo_breakpoints, 10u);
}

TEST(EdfBoundaryTest, UtilizationWithinToleranceIsComparedExactly) {
  // sum C * H / T against speed * H at H = 3 * 10^9, in integers.
  const EdfTestResult above = lo_mode_test(full_utilization_plus(1));
  EXPECT_FALSE(above.schedulable);
  EXPECT_TRUE(above.conclusive);
  const EdfTestResult below = lo_mode_test(full_utilization_plus(0));
  EXPECT_TRUE(below.schedulable);
  EXPECT_TRUE(below.conclusive);
}

TEST(EdfBoundaryTest, FullUtilizationWithOverflowingHyperperiodIsInconclusive) {
  // U = 1/2 + 1/2 equals the speed and one deadline is constrained, but
  // H = 2pq with primes p, q near 10^9 passes kInfTicks: only the breakpoint
  // budget bounds the walk, and running out of it decides nothing.
  constexpr Ticks p = 999'999'937;
  constexpr Ticks q = 999'999'929;
  const TaskSet set({McTask::lo("a", p, 2 * p - 1, 2 * p), McTask::lo("b", q, 2 * q, 2 * q)});
  EXPECT_EQ(LoDemandTable(set).window(1.0).last, kInfTicks - 1);
  EdfTestOptions options;
  options.max_breakpoints = 1'000;
  const EdfTestResult r = lo_mode_test(set, options);
  EXPECT_FALSE(r.schedulable);
  EXPECT_FALSE(r.conclusive);
  EXPECT_EQ(r.breakpoints_visited, 1'001u);
}

TEST(EdfBoundaryTest, SupplyIsComparedExactly) {
  // At speed 1 - 2^-53 the supply at D = 2^58 + 1 is C - 2^-53, which a
  // long double rounds up to C; the demand C exceeds it.
  const Ticks c = (Ticks{1} << 58) - 31;
  const Ticks d = (Ticks{1} << 58) + 1;
  const TaskSet set({McTask::lo("a", c, d, (Ticks{1} << 59) + 2)});
  EdfTestOptions options;
  options.speed = std::nextafter(1.0, 0.0);
  ASSERT_GE(LoDemandTable(set).window(options.speed).last, d);
  const EdfTestResult r = lo_mode_test(set, options);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
  EXPECT_EQ(r.violation_delta, d);
}

TEST(EdfBoundaryTest, UtilizationWindowEndIsRoundedUp) {
  // One task with C > speed * D at speed 1 - 2^-53. The exact bound
  // slack / (speed - U) lies just above D, but in double it rounds to 2^53,
  // so a window ending at its floor plus one would stop short of D.
  const Ticks p53 = Ticks{1} << 53;
  const TaskSet set({McTask::lo("a", p53 + 1, p53 + 2, 2 * p53 + 4)});
  EdfTestOptions options;
  options.speed = std::nextafter(1.0, 0.0);
  EXPECT_GE(LoDemandTable(set).window(options.speed).last, p53 + 2);
  const EdfTestResult r = lo_mode_test(set, options);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
  EXPECT_EQ(r.violation_delta, p53 + 2);
  const AnalysisReport report =
      analyze({set, 1.0, options.speed, {.speedup = false, .reset = false, .lo = true}, {}})
          .value();
  EXPECT_FALSE(report.lo_schedulable);
  EXPECT_EQ(report.lo_breakpoints, 1u);
}

TEST(EdfBoundaryTest, FullUtilizationAtNonUnitSpeed) {
  // Same boundary at speed 2: U == speed exactly with implicit deadlines.
  const TaskSet set({McTask::lo("a", 2, 2, 2), McTask::lo("b", 2, 2, 2)});
  EXPECT_TRUE(lo_mode_schedulable(set, 2.0));
  EXPECT_FALSE(lo_mode_schedulable(set, 1.0));
}

}  // namespace
}  // namespace rbs
