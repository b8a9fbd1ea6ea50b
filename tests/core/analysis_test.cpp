// Tests for the unified Analyzer facade (core/analysis.hpp), the library's one
// implementation of Theorem 2 and Corollary 5: every report is checked
// against the brute-force exact oracle of exact_oracle.hpp, which shares no
// code with the fused sweep, across the paper examples, dropped-task sets,
// generator sets on a harmonic period grid, and the degenerate corners.
#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/edf.hpp"
#include "core/exact_oracle.hpp"
#include "core/grid_sets.hpp"
#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "core/tuning.hpp"
#include "gen/fms.hpp"
#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

constexpr AnalysisParts kFused{.speedup = true, .reset = true, .lo = false};

/// Asserts the full report of `set` at `speed` (all parts, LO mode at unit
/// speed) matches the exact oracle: s_min bit for bit when it is attained at a
/// finite interval, the witness interval, Delta_R to 1e-9 relative, and all
/// three verdicts.
void expect_matches_oracle(const TaskSet& set, double speed, const AnalysisLimits& limits = {}) {
  SCOPED_TRACE("speed = " + std::to_string(speed));
  const AnalysisReport r = analyze({set, speed, 1.0, {}, limits}).value();

  // Theorem 2.
  const oracle::Speedup exact = oracle::exact_s_min(set);
  bool hi = false;
  if (exact.infinite) {
    EXPECT_TRUE(std::isinf(r.s_min));
    EXPECT_EQ(r.s_min_argmax, 0);
  } else {
    const double rounded = exact.s_min.rounded();
    hi = approx_le(rounded, speed, kSpeedTol);
    if (!r.s_min_exact) {
      // Stopped on the tolerance rule: the true value is bracketed.
      EXPECT_LE(r.s_min, rounded * (1 + 1e-12));
      EXPECT_GE(r.s_min + r.s_min_error_bound, rounded * (1 - 1e-12));
    } else if (exact.finite_argmax) {
      EXPECT_EQ(r.s_min, rounded);  // the same real number, rounded once
    } else {
      // The supremum is the limit U_HI, which the facade reports as its own
      // floating-point sum unless a breakpoint ratio rounds above it.
      EXPECT_NEAR(r.s_min, rounded, 1e-12 * rounded);
    }
    if (exact.finite_argmax) {
      EXPECT_GT(r.s_min_argmax, 0);
    }
    if (r.s_min_argmax > 0) {
      EXPECT_TRUE(oracle::same_value(oracle::ratio_at(set, r.s_min_argmax), exact.s_min))
          << "argmax " << r.s_min_argmax;
    }
  }

  // Corollary 5.
  const double delta_r = oracle::exact_delta_r(set, speed, limits.discard_dropped_carryover);
  ASSERT_FALSE(std::isnan(delta_r)) << "oracle scan did not reach the crossing";
  if (std::isinf(delta_r)) {
    EXPECT_TRUE(std::isinf(r.delta_r));
  } else {
    EXPECT_NEAR(r.delta_r, delta_r, 1e-9 * std::max(1.0, delta_r));
  }

  // Verdicts. The facade's HI verdict is the documented policy
  // (AnalysisReport::hi_schedulable_at): s_min at most the speed within
  // kSpeedTol. The oracle judges its correctly rounded s_min the same way.
  const bool lo = oracle::lo_schedulable(set);
  EXPECT_EQ(r.lo_schedulable, lo);
  EXPECT_EQ(r.hi_schedulable, hi);
  EXPECT_EQ(r.system_schedulable, lo && hi);

  // Shared ticks count once in the fused walk.
  EXPECT_LE(r.fused_breakpoints, r.speedup_breakpoints + r.reset_breakpoints);
}

TEST(AnalysisFacadeTest, OracleReproducesPaperNumbers) {
  // The oracle itself, on Example 1 (4/3 and 12/13) and Example 2.
  const oracle::Speedup base = oracle::exact_s_min(table1_base());
  EXPECT_TRUE(base.finite_argmax);
  EXPECT_TRUE(oracle::same_value(base.s_min, {4, 3}));
  EXPECT_TRUE(oracle::same_value(oracle::exact_s_min(table1_degraded()).s_min, {12, 13}));
  EXPECT_NEAR(oracle::exact_delta_r(table1_base(), 2.0), 6.0, 1e-12);
  EXPECT_NEAR(oracle::exact_delta_r(table1_base(), 4.0 / 3.0), 9.0, 1e-12);
  EXPECT_TRUE(oracle::lo_schedulable(table1_base()));
}

TEST(AnalysisFacadeTest, AgreesOnPaperExamples) {
  for (double speed : {4.0 / 3.0, 1.5, 2.0, 3.0}) {
    expect_matches_oracle(table1_base(), speed);
    expect_matches_oracle(table1_degraded(), speed);
  }
}

TEST(AnalysisFacadeTest, PaperNumbersComeOutOfOneCall) {
  // Example 1 (s_min = 4/3) and Example 2 (Delta_R(2) = 6) from one sweep.
  const AnalysisReport r = Analyzer().analyze(table1_base(), 2.0).value();
  EXPECT_NEAR(r.s_min, 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.delta_r, 6.0, 1e-12);
  EXPECT_TRUE(r.lo_schedulable);
  EXPECT_TRUE(r.hi_schedulable);  // 2 >= 4/3
  EXPECT_TRUE(r.system_schedulable);
}

/// `skeleton` prepared at its exact minimum x with LO service degraded to y = 2.
TaskSet at_min_x(const ImplicitSet& skeleton) {
  const MinXResult mx = min_x_for_lo(skeleton);
  EXPECT_TRUE(mx.feasible);
  return skeleton.materialize(mx.x, 2.0);
}

TEST(AnalysisFacadeTest, WorkCountersArePinned) {
  // Machine-independent regression signal: the breakpoints each consumer is
  // charged on the paper examples, on a 32-task UUniFast set snapped to the
  // harmonic grid (8 periods, so many sequences share each one) and on the
  // FMS set.
  Rng rng(32);
  UUniFastParams params;
  params.n_tasks = 32;
  const TaskSet grid = at_min_x(snap_to_grid(generate_uunifast_set(params, rng), rng));
  const TaskSet fms = at_min_x(fms_task_set(2.0));
  struct Row {
    TaskSet set;
    double speed;
    std::size_t speedup, reset, fused, lo;
  };
  const Row rows[] = {{table1_base(), 4.0 / 3.0, 8, 4, 8, 2},
                      {table1_base(), 2.0, 8, 3, 8, 2},
                      {table1_degraded(), 4.0 / 3.0, 34, 4, 34, 2},
                      {table1_degraded(), 2.0, 34, 3, 34, 2},
                      {grid, 4.0 / 3.0, 964, 44, 964, 22},
                      {grid, 2.0, 964, 23, 964, 22},
                      {fms, 4.0 / 3.0, 639, 99, 639, 33},
                      {fms, 2.0, 639, 48, 639, 33}};
  for (const Row& row : rows) {
    SCOPED_TRACE(std::to_string(row.set.size()) + " tasks, speed " + std::to_string(row.speed));
    const AnalysisReport r = Analyzer().analyze(row.set, row.speed).value();
    EXPECT_EQ(r.speedup_breakpoints, row.speedup);
    EXPECT_EQ(r.reset_breakpoints, row.reset);
    EXPECT_EQ(r.fused_breakpoints, row.fused);
    EXPECT_EQ(r.lo_breakpoints, row.lo);
  }
}

TEST(AnalysisFacadeTest, AgreesOnDroppedTaskSets) {
  // LO tasks terminated at the mode switch (gamma = 10 region sets drop all
  // LO service); the implicit Table I skeleton gives a small witness.
  const TaskSet dropped = table1_implicit().materialize_terminating(0.6);
  for (double speed : {1.2, 2.0}) expect_matches_oracle(dropped, speed);

  const TaskSet all_dropped({McTask::lo_terminated("a", 2, 10, 10),
                             McTask::lo_terminated("b", 3, 12, 12)});
  expect_matches_oracle(all_dropped, 1.5);
}

TEST(AnalysisFacadeTest, AgreesWithDiscardedCarryover) {
  AnalysisLimits limits;
  limits.discard_dropped_carryover = true;
  const TaskSet dropped = table1_implicit().materialize_terminating(0.6);
  for (double speed : {1.2, 2.0}) expect_matches_oracle(dropped, speed, limits);
  const TaskSet all_dropped({McTask::lo_terminated("a", 2, 10, 10),
                             McTask::lo_terminated("b", 3, 12, 12)});
  expect_matches_oracle(all_dropped, 1.5, limits);
  EXPECT_DOUBLE_EQ(analyze({all_dropped, 1.5, 1.0, kFused, limits}).value().delta_r, 0.0);
}

TEST(AnalysisFacadeTest, AgreesOnRandomizedSets) {
  // Generator sets snapped to the harmonic grid, in three variants: LO
  // service degraded (y = 2), LO tasks terminated, and deadlines shortened
  // past the LO-feasible minimum so that the LO verdict fails too.
  Rng rng(2026);
  int analyzed = 0;
  for (int i = 0; i < 400 && analyzed < 48; ++i) {
    GenParams params;
    params.u_bound = 0.3 + 0.1 * static_cast<double>(i % 5);
    const auto drawn = generate_task_set(params, rng);
    if (!drawn) continue;
    const ImplicitSet skeleton = snap_to_grid(*drawn, rng);
    const MinXResult mx = min_x_for_lo(skeleton);
    if (!mx.feasible) continue;
    const TaskSet set = i % 3 == 0   ? skeleton.materialize_terminating(mx.x)
                        : i % 3 == 1 ? skeleton.materialize(mx.x, 2.0)
                                     : skeleton.materialize(0.5 * mx.x, 2.0);
    SCOPED_TRACE("set " + std::to_string(i));
    // Fixed speeds, then speeds around Theorem 2: below U_HI (Delta_R is
    // infinite), between U_HI and s_min (HI mode fails, Delta_R is finite),
    // and exactly s_min (HI mode holds).
    std::vector<double> speeds = {1.1, 2.0};
    const oracle::Speedup exact = oracle::exact_s_min(set);
    const double u_hi = exact.u_hi.rounded();
    const double s_min = exact.s_min.rounded();
    if (u_hi > 0.0) speeds.push_back(0.9 * u_hi);
    if (!exact.infinite && u_hi + 0.02 < s_min) {
      speeds.push_back(0.5 * (u_hi + s_min));
      speeds.push_back(s_min);
    }
    for (double s : speeds) expect_matches_oracle(set, s);
    ++analyzed;
  }
  EXPECT_GE(analyzed, 40);  // the generator must not starve the test
}

TEST(AnalysisFacadeTest, UnpreparedHiTaskGivesInfiniteSmin) {
  // D(LO) == D(HI) with C(HI) > C(LO): positive demand at Delta = 0.
  const TaskSet set({McTask::hi("a", 2, 3, 5, 5, 10)});
  expect_matches_oracle(set, 2.0);
  const AnalysisReport r = Analyzer().analyze(set, 2.0, kFused).value();
  EXPECT_TRUE(std::isinf(r.s_min));
  EXPECT_FALSE(r.hi_schedulable);  // no finite speed suffices
  EXPECT_EQ(r.s_min_argmax, 0);
}

TEST(AnalysisFacadeTest, SpeedBelowUtilizationGivesInfiniteReset) {
  const TaskSet set = table1_base();
  const AnalysisReport r = Analyzer().analyze(set, 0.5, kFused).value();
  EXPECT_GT(r.u_hi, 0.5);  // premise of the corner: s <= U_HI
  EXPECT_TRUE(std::isinf(r.delta_r));
  EXPECT_TRUE(r.delta_r_exact);  // a verdict, not a budget failure
  expect_matches_oracle(set, 0.5);
}

TEST(AnalysisFacadeTest, EmptySetIsTrivial) {
  const AnalysisReport r = Analyzer().analyze(TaskSet{}, 2.0).value();
  EXPECT_DOUBLE_EQ(r.s_min, 0.0);
  EXPECT_DOUBLE_EQ(r.delta_r, 0.0);
  EXPECT_TRUE(r.system_schedulable);
  EXPECT_EQ(r.fused_breakpoints, 0u);
}

TEST(AnalysisFacadeTest, ExhaustedBudgetMatchesLegacyInexactPath) {
  // The budget-exhausted contract the retired standalone walks defined, and
  // the facade keeps.
  AnalysisLimits limits;
  limits.max_breakpoints = 1;
  const AnalysisReport r = analyze({table1_base(), 2.0, 1.0, kFused, limits}).value();
  // Theorem 2: a lower witness whose error bound still brackets s_min.
  const double exact = oracle::exact_s_min(table1_base()).s_min.rounded();
  EXPECT_FALSE(r.s_min_exact);
  EXPECT_LE(r.s_min, exact);
  EXPECT_GE(r.s_min + r.s_min_error_bound, exact);
  // Corollary 5: +inf, flagged as a budget failure.
  EXPECT_FALSE(r.delta_r_exact);
  EXPECT_TRUE(std::isinf(r.delta_r));
  EXPECT_EQ(r.speedup_breakpoints, 2u);  // the budget-exceeding tick counts
  EXPECT_EQ(r.reset_breakpoints, 2u);
}

TEST(AnalysisFacadeTest, VerdictsMatchLegacyWrappers) {
  for (const TaskSet& set : {table1_base(), table1_degraded()}) {
    for (double s : {0.9, 1.0, 4.0 / 3.0, 2.0}) {
      const AnalysisReport r = Analyzer().analyze(set, s).value();
      EXPECT_EQ(r.hi_schedulable, hi_mode_schedulable(set, s));
      EXPECT_EQ(r.lo_schedulable, lo_mode_schedulable(set));
      EXPECT_EQ(r.system_schedulable, system_schedulable(set, s));
      EXPECT_EQ(r.s_min, min_speedup_value(set));
      EXPECT_EQ(r.delta_r, resetting_time_value(set, s));
    }
  }
}

TEST(AnalysisFacadeTest, PartsGateTheVerdicts) {
  // Sub-analyses that were not requested keep conservative defaults.
  const AnalysisReport r =
      Analyzer()
          .analyze(table1_base(), 2.0, {.speedup = false, .reset = true, .lo = false})
          .value();
  EXPECT_FALSE(r.hi_schedulable);
  EXPECT_FALSE(r.lo_schedulable);
  EXPECT_FALSE(r.system_schedulable);
  EXPECT_EQ(r.speedup_breakpoints, 0u);
  EXPECT_NEAR(r.delta_r, 6.0, 1e-12);
}

TEST(AnalysisFacadeTest, RejectsDegenerateRequests) {
  AnalysisRequest request{table1_base(), 0.0, 1.0, kFused, {}};
  EXPECT_FALSE(analyze(request).is_ok());  // reset at speed 0

  request.speed = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(analyze(request).is_ok());  // reset at infinite speed

  request.speed = 2.0;
  request.limits.max_breakpoints = 0;
  EXPECT_FALSE(analyze(request).is_ok());

  request.limits = {};
  request.limits.rel_tol = -1.0;
  EXPECT_FALSE(analyze(request).is_ok());

  request.limits = {};
  request.lo_speed = 0.0;
  request.parts = {.speedup = false, .reset = false, .lo = true};
  EXPECT_FALSE(analyze(request).is_ok());  // LO test at speed 0
}

TEST(AnalysisFacadeTest, InfiniteSpeedIsFineWithoutReset) {
  // The verdict-only question "is HI mode schedulable at unbounded speedup"
  // stays answerable (resilience/partition callers rely on it).
  const AnalysisReport r =
      Analyzer()
          .analyze(table1_base(), std::numeric_limits<double>::infinity(),
                   {.speedup = true, .reset = false, .lo = false})
          .value();
  EXPECT_TRUE(r.hi_schedulable);
}

}  // namespace
}  // namespace rbs
