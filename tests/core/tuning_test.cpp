// Tests for design-parameter tuning (min-x search and greedy per-task
// deadline tightening).
#include "core/tuning.hpp"

#include <gtest/gtest.h>

#include "core/edf.hpp"
#include "core/speedup.hpp"
#include "gen/fms.hpp"
#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

ImplicitSet light_set() {
  return ImplicitSet({
      {"h", Criticality::HI, 20, 4, 8},
      {"l", Criticality::LO, 25, 5, 5},
  });
}

TEST(MinXTest, FeasibleSetHasFeasibleResult) {
  const MinXResult r = min_x_for_lo(light_set());
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.x, 0.0);
  EXPECT_LE(r.x, 1.0);
}

TEST(MinXTest, ResultIsLoSchedulableAndNearMinimal) {
  const ImplicitSet skel = light_set();
  const MinXResult r = min_x_for_lo(skel, 1e-5);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(lo_mode_schedulable(skel.materialize(r.x, 1.0)));
  // A slightly smaller x must flip the verdict or hit the same materialised
  // deadlines (integer rounding can make nearby x equivalent).
  const TaskSet below = skel.materialize(std::max(1e-6, r.x - 0.05), 1.0);
  const TaskSet at = skel.materialize(r.x, 1.0);
  if (below[0].deadline(Mode::LO) != at[0].deadline(Mode::LO))
    EXPECT_FALSE(lo_mode_schedulable(below));
}

TEST(MinXTest, InfeasibleSetDetected) {
  // LO-mode utilization > 1: no x helps.
  const ImplicitSet skel({
      {"h", Criticality::HI, 10, 6, 8},
      {"l", Criticality::LO, 10, 6, 6},
  });
  EXPECT_FALSE(min_x_for_lo(skel).feasible);
}

TEST(MinXTest, LowerUtilizationAllowsSmallerX) {
  const ImplicitSet light = light_set();
  const ImplicitSet heavy({
      {"h", Criticality::HI, 20, 9, 16},
      {"l", Criticality::LO, 25, 12, 12},
  });
  const MinXResult rl = min_x_for_lo(light);
  const MinXResult rh = min_x_for_lo(heavy);
  ASSERT_TRUE(rl.feasible);
  ASSERT_TRUE(rh.feasible);
  EXPECT_LT(rl.x, rh.x);
}

TEST(MinXTest, SmallerXReducesRequiredSpeedup) {
  // The whole point of overrun preparation (Fig. 4a trend, exact analysis).
  const ImplicitSet skel = light_set();
  const MinXResult r = min_x_for_lo(skel);
  ASSERT_TRUE(r.feasible);
  const double s_min_at_min_x = min_speedup_value(skel.materialize(r.x, 2.0));
  const double s_min_at_one = min_speedup_value(skel.materialize(1.0, 2.0));
  EXPECT_LE(s_min_at_min_x, s_min_at_one + 1e-12);
}

TEST(MinXTest, FmsModelIsFeasible) {
  const MinXResult r = min_x_for_lo(fms_task_set(2.0));
  ASSERT_TRUE(r.feasible);
  EXPECT_LT(r.x, 1.0);
}

TEST(TightenTest, NeverWorseThanInput) {
  const TaskSet start = light_set().materialize(1.0, 2.0);
  const TightenResult r = tighten_lo_deadlines(start);
  EXPECT_LE(r.s_min, min_speedup_value(start) + 1e-12);
  EXPECT_TRUE(lo_mode_schedulable(r.set));
}

TEST(TightenTest, ReportedSpeedupMatchesReturnedSet) {
  const TaskSet start = light_set().materialize(0.9, 1.5);
  const TightenResult r = tighten_lo_deadlines(start);
  EXPECT_NEAR(r.s_min, min_speedup_value(r.set), 1e-12);
}

TEST(TightenTest, OnlyHiTaskLoDeadlinesChange) {
  const TaskSet start = light_set().materialize(1.0, 2.0);
  const TightenResult r = tighten_lo_deadlines(start);
  ASSERT_EQ(r.set.size(), start.size());
  for (std::size_t i = 0; i < start.size(); ++i) {
    EXPECT_EQ(r.set[i].deadline(Mode::HI), start[i].deadline(Mode::HI));
    EXPECT_EQ(r.set[i].period(Mode::LO), start[i].period(Mode::LO));
    if (!start[i].is_hi())
      EXPECT_EQ(r.set[i].deadline(Mode::LO), start[i].deadline(Mode::LO));
  }
}

TEST(TightenTest, RefiningCommonFactorNeverLoses) {
  // Seeding the per-task greedy with the best common-x solution can only
  // improve it (the greedy never accepts a worse set), and from a cold start
  // it must land in the same ballpark.
  Rng rng(5);
  GenParams params;
  params.u_bound = 0.5;
  int tested = 0;
  for (int trial = 0; trial < 20 && tested < 8; ++trial) {
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const MinXResult mx = min_x_for_lo(*skeleton);
    if (!mx.feasible) continue;
    ++tested;
    const TaskSet common = skeleton->materialize(mx.x, 2.0);
    const double s_common = min_speedup_value(common);
    const TightenResult refined = tighten_lo_deadlines(common);
    EXPECT_LE(refined.s_min, s_common + 1e-9) << "trial " << trial;
    const TightenResult cold = tighten_lo_deadlines(skeleton->materialize(1.0, 2.0));
    EXPECT_LE(cold.s_min, s_common * 1.35 + 1e-9) << "trial " << trial;
  }
  EXPECT_GT(tested, 0);
}

TEST(TightenTest, InfeasibleLoModeReturnsUnchanged) {
  const TaskSet bad({McTask::lo("a", 6, 10, 10), McTask::lo("b", 6, 10, 10)});
  const TightenResult r = tighten_lo_deadlines(bad);
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
}  // namespace rbs
