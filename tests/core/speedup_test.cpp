// Tests for Theorem 2 (minimum HI-mode speedup).
#include "core/speedup.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/edf.hpp"
#include "core/exact_oracle.hpp"
#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

TEST(SpeedupTest, Table1BaseIsFourThirds) {
  const AnalysisReport r = speedup_report(table1_base());
  EXPECT_TRUE(r.s_min_exact);
  EXPECT_NEAR(r.s_min, 4.0 / 3.0, 1e-12);
}

TEST(SpeedupTest, Table1DegradedAllowsSlowdown) {
  const AnalysisReport r = speedup_report(table1_degraded());
  EXPECT_TRUE(r.s_min_exact);
  EXPECT_NEAR(r.s_min, 12.0 / 13.0, 1e-12);  // the paper's ~0.92
  EXPECT_LT(r.s_min, 1.0);                   // "the system can actually slow down"
}

TEST(SpeedupTest, BothTable1VariantsAreLoSchedulable) {
  EXPECT_TRUE(lo_mode_schedulable(table1_base()));
  EXPECT_TRUE(lo_mode_schedulable(table1_degraded()));
}

TEST(SpeedupTest, EmptySetNeedsNoSpeedup) {
  EXPECT_DOUBLE_EQ(min_speedup_value(TaskSet{}), 0.0);
}

TEST(SpeedupTest, UnpreparedHiTaskNeedsInfiniteSpeedup) {
  // D(LO) == D(HI) with C(HI) > C(LO): demand at Delta=0 (see Theorem 2).
  const TaskSet set({McTask::hi("h", 2, 4, 10, 10, 10)});
  const AnalysisReport r = speedup_report(set);
  EXPECT_TRUE(std::isinf(r.s_min));
  EXPECT_EQ(r.s_min_argmax, 0);
}

TEST(SpeedupTest, AllTasksDroppedNeedsNothing) {
  const TaskSet set({McTask::lo_terminated("a", 2, 10, 10),
                     McTask::lo_terminated("b", 3, 20, 20)});
  EXPECT_DOUBLE_EQ(min_speedup_value(set), 0.0);
}

TEST(SpeedupTest, SingleHiTaskKnownValue) {
  // tau1 of Table I alone: DBF_HI peaks at delta = g + C(LO) = 3 + 3 = 6 with
  // demand C(HI) = 5, and at every later window the density only drops.
  const TaskSet set({McTask::hi("h", 3, 5, 4, 7, 7)});
  const AnalysisReport r = speedup_report(set);
  EXPECT_NEAR(r.s_min, 5.0 / 6.0, 1e-12);
  EXPECT_EQ(r.s_min_argmax, 6);
}

TEST(SpeedupTest, MatchesBruteForceOnRandomSets) {
  Rng rng(42);
  GenParams params;
  params.u_bound = 0.6;
  params.period_min = 5;
  params.period_max = 60;  // small periods so brute force is cheap
  for (int trial = 0; trial < 30; ++trial) {
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const TaskSet set = skeleton->materialize(0.5, 2.0);
    const AnalysisReport r = speedup_report(set);
    ASSERT_TRUE(r.s_min_exact);
    // The oracle's scan up to a generous bound is a lower witness; if the
    // algorithm's argmax falls inside the scan it must match exactly.
    const Ticks bound = 3000;
    const double brute = oracle::max_ratio(set, bound).rounded();
    EXPECT_GE(r.s_min + 1e-12, brute) << "trial " << trial;
    if (r.s_min_argmax > 0 && r.s_min_argmax <= bound) {
      EXPECT_NEAR(r.s_min, std::max(brute, set.total_utilization(Mode::HI)), 1e-12)
          << "trial " << trial;
    }
  }
}

TEST(SpeedupTest, NeverBelowHiModeUtilization) {
  Rng rng(7);
  GenParams params;
  params.u_bound = 0.7;
  for (int trial = 0; trial < 20; ++trial) {
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const TaskSet set = skeleton->materialize(0.6, 1.5);
    EXPECT_GE(min_speedup_value(set) + 1e-12, set.total_utilization(Mode::HI));
  }
}

TEST(SpeedupTest, MorePreparationNeverIncreasesSpeedup) {
  // Monotonicity in x (Lemma 6's trend), on the exact analysis.
  const TaskSet loose({McTask::hi("h", 3, 5, 6, 7, 7), McTask::lo("l", 2, 15, 15)});
  const TaskSet tight({McTask::hi("h", 3, 5, 4, 7, 7), McTask::lo("l", 2, 15, 15)});
  EXPECT_LE(min_speedup_value(tight), min_speedup_value(loose) + 1e-12);
}

TEST(SpeedupTest, MoreDegradationNeverIncreasesSpeedup) {
  // Monotonicity in y (Lemma 6's trend), on the exact analysis.
  const TaskSet none({McTask::hi("h", 3, 5, 4, 7, 7), McTask::lo("l", 2, 15, 15)});
  const TaskSet some({McTask::hi("h", 3, 5, 4, 7, 7), McTask::lo("l", 2, 15, 15, 20, 20)});
  const TaskSet term({McTask::hi("h", 3, 5, 4, 7, 7), McTask::lo_terminated("l", 2, 15, 15)});
  const double s_none = min_speedup_value(none);
  const double s_some = min_speedup_value(some);
  const double s_term = min_speedup_value(term);
  EXPECT_LE(s_some, s_none + 1e-12);
  EXPECT_LE(s_term, s_some + 1e-12);
}

TEST(SpeedupTest, TerminationEqualsNoLoTaskForHiDemand) {
  // With LO tasks terminated, HI-mode demand comes from HI tasks alone.
  const TaskSet with_term(
      {McTask::hi("h", 3, 5, 4, 7, 7), McTask::lo_terminated("l", 2, 15, 15)});
  const TaskSet hi_only({McTask::hi("h", 3, 5, 4, 7, 7)});
  EXPECT_NEAR(min_speedup_value(with_term), min_speedup_value(hi_only), 1e-12);
}

TEST(SpeedupTest, HiModeSchedulableThresholds) {
  const TaskSet set = table1_base();
  EXPECT_TRUE(hi_mode_schedulable(set, 4.0 / 3.0));
  EXPECT_TRUE(hi_mode_schedulable(set, 2.0));
  EXPECT_FALSE(hi_mode_schedulable(set, 1.3));
}

TEST(SpeedupTest, SystemSchedulableChecksBothModes) {
  EXPECT_TRUE(system_schedulable(table1_base(), 4.0 / 3.0));
  EXPECT_FALSE(system_schedulable(table1_base(), 1.0));
  // LO-mode infeasible set: utilization > 1.
  const TaskSet overloaded({McTask::lo("a", 9, 10, 10), McTask::lo("b", 9, 10, 10)});
  EXPECT_FALSE(system_schedulable(overloaded, 10.0));
}

TEST(SpeedupTest, ScalingAllParametersLeavesSpeedupInvariant) {
  // s_min is dimensionless: scaling every tick parameter by a constant factor
  // must not change it.
  const TaskSet base = table1_base();
  std::vector<McTask> scaled_tasks;
  for (const McTask& t : base) {
    if (t.is_hi())
      scaled_tasks.push_back(McTask::hi(t.name(), t.wcet(Mode::LO) * 10,
                                        t.wcet(Mode::HI) * 10, t.deadline(Mode::LO) * 10,
                                        t.deadline(Mode::HI) * 10, t.period(Mode::LO) * 10));
    else
      scaled_tasks.push_back(McTask::lo(t.name(), t.wcet(Mode::LO) * 10,
                                        t.deadline(Mode::LO) * 10, t.period(Mode::LO) * 10,
                                        t.deadline(Mode::HI) * 10, t.period(Mode::HI) * 10));
  }
  EXPECT_NEAR(min_speedup_value(TaskSet(std::move(scaled_tasks))), min_speedup_value(base),
              1e-12);
}

TEST(SpeedupTest, ReportsArgmaxWitness) {
  const AnalysisReport r = speedup_report(table1_base());
  ASSERT_GT(r.s_min_argmax, 0);
  // The ratio at the witness (value or left limit) reproduces s_min.
  EXPECT_EQ(oracle::ratio_at(table1_base(), r.s_min_argmax).rounded(), r.s_min);
}

}  // namespace
}  // namespace rbs
