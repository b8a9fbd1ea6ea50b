// Tests for the Section V closed formulas (Lemmas 6 and 7) and the
// implicit-deadline materialisers (Eqs. 13-14).
#include "core/closed_form.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

ImplicitSet example_set() {
  return ImplicitSet({
      {"h1", Criticality::HI, 20, 4, 8},
      {"h2", Criticality::HI, 50, 5, 15},
      {"l1", Criticality::LO, 25, 5, 5},
      {"l2", Criticality::LO, 40, 4, 4},
  });
}

TEST(ImplicitSetTest, UtilizationAccessors) {
  const ImplicitSet set = example_set();
  EXPECT_NEAR(set.u_total_lo(), 4.0 / 20 + 5.0 / 50 + 5.0 / 25 + 4.0 / 40, 1e-12);
  EXPECT_NEAR(set.u_hi_hi(), 8.0 / 20 + 15.0 / 50, 1e-12);
  EXPECT_NEAR(set.u_lo_lo(), 5.0 / 25 + 4.0 / 40, 1e-12);
}

TEST(ImplicitSetTest, RejectsIllFormedTasks) {
  EXPECT_THROW(ImplicitSet({{"t", Criticality::HI, 10, 5, 4}}), std::invalid_argument);
  EXPECT_THROW(ImplicitSet({{"t", Criticality::HI, 10, 5, 12}}), std::invalid_argument);
  EXPECT_THROW(ImplicitSet({{"t", Criticality::LO, 10, 4, 5}}), std::invalid_argument);
}

TEST(ImplicitSetTest, MaterializeAppliesFactors) {
  const TaskSet set = example_set().materialize(0.5, 2.0);
  const McTask& h1 = set[0];
  EXPECT_EQ(h1.deadline(Mode::LO), 10);  // x * T = 0.5 * 20
  EXPECT_EQ(h1.deadline(Mode::HI), 20);  // implicit
  const McTask& l1 = set[2];
  EXPECT_EQ(l1.deadline(Mode::HI), 50);  // y * T = 2 * 25
  EXPECT_EQ(l1.period(Mode::HI), 50);
  EXPECT_EQ(l1.deadline(Mode::LO), 25);
}

TEST(ImplicitSetTest, MaterializeClampsDeadlineAboveWcet) {
  // x*T below C(LO) would be infeasible; the materialiser clamps.
  const ImplicitSet set({{"h", Criticality::HI, 10, 6, 8}});
  const TaskSet out = set.materialize(0.1, 1.0);
  EXPECT_EQ(out[0].deadline(Mode::LO), 6);
}

TEST(ImplicitSetTest, MaterializeTerminatingDropsLoTasks) {
  const TaskSet set = example_set().materialize_terminating(0.5);
  EXPECT_TRUE(set[2].dropped_in_hi());
  EXPECT_TRUE(set[3].dropped_in_hi());
  EXPECT_FALSE(set[0].dropped_in_hi());
}

TEST(Lemma6Test, UpperBoundsExactSpeedup) {
  const ImplicitSet skel = example_set();
  for (double x : {0.3, 0.5, 0.7, 0.9})
    for (double y : {1.0, 1.5, 2.0, 4.0}) {
      const TaskSet set = skel.materialize(x, y);
      const double exact = min_speedup_value(set);
      // Per-task effective factors account for integer rounding exactly.
      const double bound = lemma6_speedup_bound(set);
      EXPECT_GE(bound + 1e-9, exact) << "x=" << x << " y=" << y;
    }
}

TEST(Lemma6Test, ScalarFormulaMatchesPerTaskOnExactFactors) {
  // Periods divisible enough that x*T and y*T are integers: both variants of
  // the formula must agree to rounding error.
  const ImplicitSet skel({
      {"h1", Criticality::HI, 20, 4, 8},
      {"l1", Criticality::LO, 40, 4, 4},
  });
  for (double x : {0.25, 0.5, 0.75})
    for (double y : {1.0, 1.5, 2.0}) {
      const double scalar = lemma6_speedup_bound(skel, x, y);
      const double per_task = lemma6_speedup_bound(skel.materialize(x, y));
      EXPECT_NEAR(scalar, per_task, 1e-12) << "x=" << x << " y=" << y;
    }
}

TEST(Lemma6Test, MonotoneTrends) {
  // "s_min will monotonically decrease with decreasing x and/or increasing y"
  const ImplicitSet skel = example_set();
  double prev = 1e300;
  for (double x : {0.9, 0.7, 0.5, 0.3}) {
    const double b = lemma6_speedup_bound(skel, x, 2.0);
    EXPECT_LT(b, prev);
    prev = b;
  }
  prev = 1e300;
  for (double y : {1.0, 1.5, 2.0, 4.0, 16.0}) {
    const double b = lemma6_speedup_bound(skel, 0.5, y);
    EXPECT_LT(b, prev);
    prev = b;
  }
}

TEST(Lemma6Test, NoDegradationLoTermIsOne) {
  // At y = 1 every LO task contributes exactly 1 (its carry-over job may be
  // due immediately after the switch).
  const ImplicitSet lo_only({{"l", Criticality::LO, 25, 5, 5}});
  EXPECT_NEAR(lemma6_speedup_bound(lo_only, 0.5, 1.0), 1.0, 1e-12);
}

TEST(Lemma6Test, TerminationDropsLoTerms) {
  const ImplicitSet skel = example_set();
  const TaskSet term = skel.materialize_terminating(0.5);
  ImplicitSet hi_only({skel.tasks()[0], skel.tasks()[1]});
  EXPECT_NEAR(lemma6_speedup_bound(term), lemma6_speedup_bound(hi_only, 0.5, 1.0), 1e-12);
}

TEST(Lemma6Test, RejectsNonImplicitSets) {
  const TaskSet constrained({McTask::hi("h", 2, 4, 5, 8, 10)});
  EXPECT_THROW(lemma6_speedup_bound(constrained), std::invalid_argument);
}

TEST(Lemma7Test, UpperBoundsExactResetTime) {
  const ImplicitSet skel = example_set();
  for (double x : {0.4, 0.6})
    for (double y : {1.5, 2.0})
      for (double s : {2.0, 3.0, 4.0}) {
        const TaskSet set = skel.materialize(x, y);
        const double exact = resetting_time_value(set, s);
        const double bound = lemma7_reset_bound(set, s);
        if (std::isinf(bound)) continue;  // s <= s_bar: bound is vacuous
        EXPECT_GE(bound + 1e-9, exact) << "x=" << x << " y=" << y << " s=" << s;
      }
}

TEST(Lemma7Test, InfiniteAtOrBelowSbar) {
  const ImplicitSet skel = example_set();
  const double s_bar = lemma6_speedup_bound(skel, 0.5, 2.0);
  EXPECT_TRUE(std::isinf(lemma7_reset_bound(skel, 0.5, 2.0, s_bar)));
  EXPECT_TRUE(std::isinf(lemma7_reset_bound(skel, 0.5, 2.0, s_bar * 0.9)));
  EXPECT_TRUE(std::isfinite(lemma7_reset_bound(skel, 0.5, 2.0, s_bar + 0.5)));
}

TEST(Lemma7Test, RawFormula) {
  EXPECT_NEAR(lemma7_reset_bound_raw(/*total_c_hi=*/30.0, /*s_min=*/1.5, /*s=*/2.0), 60.0,
              1e-12);
  EXPECT_TRUE(std::isinf(lemma7_reset_bound_raw(30.0, 2.0, 2.0)));
}

TEST(Lemma7Test, GainFromHigherSpeedup) {
  // Fig. 4b's trend: Delta_R shrinks as s grows, explodes as s -> s_min.
  double prev = std::numeric_limits<double>::infinity();
  for (double s = 1.6; s <= 4.0; s += 0.2) {
    const double dr = lemma7_reset_bound_raw(20.0, 1.5, s);
    EXPECT_LT(dr, prev);
    prev = dr;
  }
}

TEST(Lemma7Test, BoundHoldsOnRandomImplicitSets) {
  Rng rng(99);
  GenParams params;
  params.u_bound = 0.55;
  int tested = 0;
  for (int trial = 0; trial < 40 && tested < 15; ++trial) {
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const TaskSet set = skeleton->materialize(0.6, 2.0);
    const double bound = lemma7_reset_bound(set, 3.0);
    if (std::isinf(bound)) continue;
    ++tested;
    EXPECT_GE(bound + 1e-9, resetting_time_value(set, 3.0));
  }
  EXPECT_GT(tested, 0);
}

}  // namespace
}  // namespace rbs
