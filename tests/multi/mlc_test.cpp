// Tests for the K-level extension (per-transition dual-criticality
// projections).
#include "multi/mlc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/edf.hpp"
#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "gen/paper_examples.hpp"
#include "sim/simulate.hpp"

namespace rbs {
namespace {

// A 3-level system: one level-2 task (certified twice), one level-1 task,
// and one level-0 task that degrades at the first switch and is terminated
// at the second.
MlcSystem three_level_system() {
  std::vector<MlcTask> tasks;
  tasks.push_back({"crit2", 2, {{20, 6, 2}, {20, 12, 4}, {20, 20, 7}}});
  tasks.push_back({"crit1", 1, {{30, 10, 3}, {30, 24, 6}, {60, 60, 6}}});
  tasks.push_back({"crit0", 0, {{25, 25, 4}, {50, 50, 4}, {kInfTicks, kInfTicks, 4}}});
  return MlcSystem(3, std::move(tasks));
}

TEST(MlcValidationTest, AcceptsWellFormedSystem) {
  EXPECT_NO_THROW(three_level_system());
}

TEST(MlcValidationTest, RejectsTooFewLevels) {
  EXPECT_THROW(MlcSystem(1, {}), std::invalid_argument);
}

TEST(MlcValidationTest, RejectsWrongLevelCount) {
  std::vector<MlcTask> tasks{{"t", 0, {{10, 10, 1}}}};
  EXPECT_THROW(MlcSystem(3, std::move(tasks)), std::invalid_argument);
}

TEST(MlcValidationTest, RejectsShrinkingWcetBelowCriticality) {
  std::vector<MlcTask> tasks{{"t", 1, {{10, 5, 3}, {10, 8, 2}}}};
  EXPECT_THROW(MlcSystem(2, std::move(tasks)), std::invalid_argument);
}

TEST(MlcValidationTest, RejectsTerminationAtOwnCriticality) {
  std::vector<MlcTask> tasks{{"t", 1, {{10, 5, 3}, {kInfTicks, kInfTicks, 3}}}};
  EXPECT_THROW(MlcSystem(2, std::move(tasks)), std::invalid_argument);
}

TEST(MlcValidationTest, RejectsResurrection) {
  std::vector<MlcTask> tasks{
      {"t", 0, {{10, 10, 2}, {kInfTicks, kInfTicks, 2}, {20, 20, 2}}}};
  EXPECT_THROW(MlcSystem(3, std::move(tasks)), std::invalid_argument);
}

TEST(MlcValidationTest, RejectsWcetChangeAboveCriticality) {
  std::vector<MlcTask> tasks{{"t", 0, {{10, 10, 2}, {20, 20, 3}}}};
  EXPECT_THROW(MlcSystem(2, std::move(tasks)), std::invalid_argument);
}

TEST(MlcProjectionTest, TwoLevelSystemReproducesDualAnalysis) {
  // A K = 2 system built from Table I must match the dual-criticality path
  // exactly (same s_min, same Delta_R).
  std::vector<MlcTask> tasks;
  tasks.push_back({"tau1", 1, {{7, 4, 3}, {7, 7, 5}}});
  tasks.push_back({"tau2", 0, {{15, 5, 2}, {20, 15, 2}}});
  const MlcSystem system(2, std::move(tasks));
  const TaskSet proj = system.projection(1);
  EXPECT_NEAR(min_speedup_value(proj), min_speedup_value(table1_degraded()), 1e-12);
  EXPECT_NEAR(resetting_time_value(proj, 2.0), resetting_time_value(table1_degraded(), 2.0),
              1e-9);
}

TEST(MlcProjectionTest, StructureOfEachTransition) {
  const MlcSystem system = three_level_system();

  const TaskSet p1 = system.projection(1);
  ASSERT_EQ(p1.size(), 3u);
  EXPECT_TRUE(p1[0].is_hi());   // crit2: full service across 0 -> 1
  EXPECT_TRUE(p1[1].is_hi());   // crit1 still above the transition
  EXPECT_FALSE(p1[2].is_hi());  // crit0 degrades 25 -> 50
  EXPECT_EQ(p1[2].period(Mode::HI), 50);

  const TaskSet p2 = system.projection(2);
  ASSERT_EQ(p2.size(), 3u);
  EXPECT_TRUE(p2[0].is_hi());
  EXPECT_EQ(p2[0].wcet(Mode::LO), 4);  // level-1 WCET is the new optimistic budget
  EXPECT_EQ(p2[0].wcet(Mode::HI), 7);
  EXPECT_FALSE(p2[1].is_hi());  // crit1 degrades above its level: 30 -> 60
  EXPECT_EQ(p2[1].period(Mode::HI), 60);
  EXPECT_TRUE(p2[2].dropped_in_hi());  // crit0 terminated at level 2
}

TEST(MlcProjectionTest, TransitionIndexBoundsChecked) {
  const MlcSystem system = three_level_system();
  EXPECT_THROW(system.projection(0), std::invalid_argument);
  EXPECT_THROW(system.projection(3), std::invalid_argument);
}

TEST(MlcAnalysisTest, EndToEndThreeLevels) {
  const MlcSystem system = three_level_system();
  // s_min does not depend on the speed budgeted for a transition.
  const std::vector<double> s_mins = analyze_mlc(system, {1.0, 1.0}).level_speedups;
  ASSERT_EQ(s_mins.size(), 2u);
  for (double s : s_mins) EXPECT_TRUE(std::isfinite(s));

  std::vector<double> budget{std::max(1.0, s_mins[0]) + 0.2,
                             std::max(1.0, s_mins[1]) + 0.2};
  const MlcAnalysis analysis = analyze_mlc(system, budget);
  EXPECT_TRUE(analysis.mode0_schedulable);
  EXPECT_TRUE(analysis.schedulable);
  EXPECT_EQ(analysis.level_speedups, s_mins);
  ASSERT_EQ(analysis.reset_times.size(), 2u);
  for (double dr : analysis.reset_times) EXPECT_TRUE(std::isfinite(dr));

  // Tight budgets below some s_min flip the verdict.
  std::vector<double> tight{s_mins[0] * 0.5, budget[1]};
  EXPECT_FALSE(analyze_mlc(system, tight).schedulable);
}

TEST(MlcAnalysisTest, BudgetSizeChecked) {
  EXPECT_THROW(analyze_mlc(three_level_system(), {2.0}), std::invalid_argument);
}

TEST(MlcSimTest, EveryProjectionExecutesCleanly) {
  // Each transition is a dual-criticality instance: the existing simulator
  // validates each one at its per-level s_min.
  const MlcSystem system = three_level_system();
  for (int k = 1; k < system.num_levels(); ++k) {
    const TaskSet proj = system.projection(k);
    const double s = std::max({min_speedup_value(proj) + 1e-9,
                               proj.total_utilization(Mode::HI) + 0.05, 0.2});
    const double dr = resetting_time_value(proj, s);
    sim::SimConfig cfg;
    cfg.horizon = 20000.0;
    cfg.hi_speed = s;
    cfg.demand.overrun_probability = 0.6;
    cfg.release_jitter = 0.2;
    cfg.seed = static_cast<std::uint64_t>(k);
    const sim::SimMetrics r = sim::Simulator().run(proj, cfg).value().metrics;
    EXPECT_FALSE(r.deadline_missed()) << "transition " << k;
    if (std::isfinite(dr))
      for (double dwell : r.hi_dwell_times) EXPECT_LE(dwell, dr + 1e-6) << "transition " << k;
  }
}

}  // namespace
}  // namespace rbs
