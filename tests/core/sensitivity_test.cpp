// Tests for the sensitivity analysis (the HI-WCET uncertainty gamma).
#include "core/sensitivity.hpp"

#include <gtest/gtest.h>

#include "core/speedup.hpp"
#include "gen/fms.hpp"
#include "gen/paper_examples.hpp"

namespace rbs {
namespace {

TEST(ScaleHiWcetsTest, ScalesAndClamps) {
  const TaskSet set = table1_base();  // tau1: C(LO)=3, D(HI)=7
  const TaskSet g1 = scale_hi_wcets(set, 1.0);
  EXPECT_EQ(g1[0].wcet(Mode::HI), 3);
  const TaskSet g2 = scale_hi_wcets(set, 2.0);
  EXPECT_EQ(g2[0].wcet(Mode::HI), 6);
  const TaskSet g9 = scale_hi_wcets(set, 9.0);
  EXPECT_EQ(g9[0].wcet(Mode::HI), 7);  // clamped at D(HI)
  // LO tasks untouched.
  EXPECT_EQ(g9[1].wcet(Mode::HI), 2);
}

TEST(ScaleHiWcetsTest, SpeedupMonotoneInGamma) {
  const TaskSet set = table1_base();
  double prev = 0.0;
  for (double gamma : {1.0, 1.3, 5.0 / 3.0, 2.0}) {
    const double s = min_speedup_value(scale_hi_wcets(set, gamma));
    EXPECT_GE(s, prev - 1e-12) << "gamma=" << gamma;
    prev = s;
  }
}

TEST(MaxGammaTest, ConsistentWithDirectCheck) {
  const TaskSet set = table1_base();
  const auto gamma = max_tolerable_gamma(set, 2.0);
  ASSERT_TRUE(gamma.has_value());
  EXPECT_TRUE(hi_mode_schedulable(scale_hi_wcets(set, *gamma), 2.0));
  // C(HI) saturates at D(HI) = 7 (gamma ~ 7/3); once saturated, larger gamma
  // changes nothing, so the search may hit its ceiling -- that is the
  // "insensitive beyond the ceiling" answer.
  EXPECT_GE(*gamma, 7.0 / 3.0 - 1e-3);
}

TEST(MaxGammaTest, TightSpeedGivesSmallGamma) {
  const TaskSet set = table1_base();  // s_min(gamma=5/3... base C(HI)=5) = 4/3
  // At exactly s = s_min the current gamma = 5/3 is the limit unless demand
  // is insensitive; the result must at least include gamma = 1.
  const auto gamma = max_tolerable_gamma(set, 4.0 / 3.0);
  ASSERT_TRUE(gamma.has_value());
  EXPECT_GE(*gamma, 5.0 / 3.0 - 1e-3);  // the set itself is feasible
  // And infeasible speed: below s_min(gamma=1).
  const double s_floor = min_speedup_value(scale_hi_wcets(set, 1.0));
  EXPECT_FALSE(max_tolerable_gamma(set, s_floor * 0.5).has_value());
}

TEST(MaxGammaTest, FmsToleratesSubstantialUncertaintyAtTwoX) {
  const TaskSet fms = fms_task_set(1.0).materialize(0.6, 2.0);
  const auto gamma = max_tolerable_gamma(fms, 2.0);
  ASSERT_TRUE(gamma.has_value());
  EXPECT_GT(*gamma, 1.5);  // 2x speedup buys real certification headroom
}

}  // namespace
}  // namespace rbs
