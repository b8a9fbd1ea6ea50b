// Property-based tests: structural invariants of the analyses, checked over
// exhaustive small-parameter families and randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/adb.hpp"
#include "core/dbf.hpp"
#include "core/exact_oracle.hpp"
#include "core/left_limits.hpp"
#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

// ---- exhaustive single-HI-task family ------------------------------------

TEST(SingleTaskFamilyTest, SpeedupMatchesBruteForce) {
  // Every HI task with T <= 8: the algorithm must agree with the exact
  // oracle (the per-task supremum lies in (0, T]).
  int cases = 0;
  for (Ticks t = 2; t <= 8; ++t)
    for (Ticks d_hi = 1; d_hi <= t; ++d_hi)
      for (Ticks d_lo = 1; d_lo <= d_hi; ++d_lo)
        for (Ticks c_lo = 1; c_lo <= d_lo; ++c_lo)
          for (Ticks c_hi = c_lo; c_hi <= d_hi; ++c_hi) {
            const TaskSet set({McTask::hi("h", c_lo, c_hi, d_lo, d_hi, t)});
            const AnalysisReport r =
                Analyzer().analyze(set, 1.0, {.speedup = true, .reset = false, .lo = false})
                    .value();
            ++cases;
            if (std::isinf(r.s_min)) {
              // Infinite iff positive demand at delta = 0.
              EXPECT_GT(dbf_hi_total(set, 0), 0);
              continue;
            }
            // When the supremum *equals* the utilization limit the search can
            // only close the gap to rel_tol; the residual must be tiny.
            if (!r.s_min_exact) {
              ASSERT_LE(r.s_min_error_bound, 1e-6 * std::max(1.0, r.s_min));
            }
            const double brute = oracle::exact_s_min(set).s_min.rounded();
            EXPECT_NEAR(r.s_min, brute, r.s_min_error_bound + 1e-12)
                << "C=(" << c_lo << "," << c_hi << ") D=(" << d_lo << "," << d_hi
                << ") T=" << t;
          }
  EXPECT_GT(cases, 500);
}

TEST(SingleTaskFamilyTest, ResetSatisfiesDefinitionEverywhere) {
  for (Ticks t = 3; t <= 7; ++t)
    for (Ticks d_lo = 1; d_lo < t; ++d_lo)
      for (Ticks c_lo = 1; c_lo <= d_lo; ++c_lo)
        for (Ticks c_hi = c_lo; c_hi <= t; ++c_hi)
          for (double s : {1.1, 1.7, 2.6}) {
            const TaskSet set({McTask::hi("h", c_lo, c_hi, d_lo, t, t)});
            if (s <= set.total_utilization(Mode::HI)) continue;
            const double dr = resetting_time_value(set, s);
            ASSERT_TRUE(std::isfinite(dr));
            // Condition holds at Delta_R (linear interpolation between
            // integer breakpoints) and fails at every earlier integer.
            const auto lo = static_cast<Ticks>(std::floor(dr));
            const auto hi = static_cast<Ticks>(std::ceil(dr));
            double at;
            if (lo == hi) {
              at = static_cast<double>(adb_hi_total(set, lo));
            } else {
              const auto v0 = static_cast<double>(adb_hi_total(set, lo));
              const auto v1 = static_cast<double>(adb_hi_total_left(set, hi));
              at = v0 + (v1 - v0) * (dr - static_cast<double>(lo));
            }
            EXPECT_LE(at, s * dr + 1e-6);
            for (Ticks d = 0; d < lo; ++d)
              EXPECT_GT(static_cast<double>(adb_hi_total(set, d)),
                        s * static_cast<double>(d) - 1e-6)
                  << "C=(" << c_lo << "," << c_hi << ") D_lo=" << d_lo << " T=" << t
                  << " s=" << s << " d=" << d;
          }
}

// ---- randomized set-level invariants --------------------------------------

class SetInvariantTest : public testing::TestWithParam<int> {
 protected:
  TaskSet random_set(Rng& rng, double u) {
    GenParams params;
    params.u_bound = u;
    params.period_min = 5;
    params.period_max = 200;
    for (int attempt = 0; attempt < 50; ++attempt) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      return skeleton->materialize(rng.uniform(0.2, 0.9), rng.uniform(1.0, 3.0));
    }
    return TaskSet{};
  }
};

TEST_P(SetInvariantTest, AdbDominatesDbfPointwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const TaskSet set = random_set(rng, 0.6);
  if (set.empty()) GTEST_SKIP();
  for (Ticks d = 0; d <= 500; ++d) EXPECT_GE(adb_hi_total(set, d), dbf_hi_total(set, d));
}

TEST_P(SetInvariantTest, DemandFunctionsMonotone) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const TaskSet set = random_set(rng, 0.7);
  if (set.empty()) GTEST_SKIP();
  Ticks prev_dbf = 0, prev_adb = 0, prev_lo = 0;
  for (Ticks d = 0; d <= 500; ++d) {
    const Ticks v1 = dbf_hi_total(set, d);
    const Ticks v2 = adb_hi_total(set, d);
    const Ticks v3 = dbf_lo_total(set, d);
    EXPECT_GE(v1, prev_dbf);
    EXPECT_GE(v2, prev_adb);
    EXPECT_GE(v3, prev_lo);
    prev_dbf = v1;
    prev_adb = v2;
    prev_lo = v3;
  }
}

TEST_P(SetInvariantTest, SpeedupSubadditiveOverUnion) {
  // sup (f+g)/D <= sup f/D + sup g/D.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  const TaskSet a = random_set(rng, 0.4);
  const TaskSet b = random_set(rng, 0.4);
  if (a.empty() || b.empty()) GTEST_SKIP();
  std::vector<McTask> merged(a.tasks());
  for (McTask t : b.tasks()) merged.push_back(std::move(t));
  const TaskSet both(std::move(merged));
  EXPECT_LE(min_speedup_value(both),
            min_speedup_value(a) + min_speedup_value(b) + 1e-9);
}

TEST_P(SetInvariantTest, SpeedupAtLeastEveryTasksOwn) {
  // Removing tasks never increases the required speedup.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  const TaskSet set = random_set(rng, 0.6);
  if (set.size() < 2) GTEST_SKIP();
  const double s_all = min_speedup_value(set);
  for (const McTask& t : set)
    EXPECT_GE(s_all + 1e-12, min_speedup_value(TaskSet({t}))) << describe(t);
}

TEST_P(SetInvariantTest, ResetBracketedByDemandEnvelope) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 400);
  const TaskSet set = random_set(rng, 0.6);
  if (set.empty()) GTEST_SKIP();
  const double u = set.total_utilization(Mode::HI);
  const double s = u + 0.4;
  const double dr = resetting_time_value(set, s);
  ASSERT_TRUE(std::isfinite(dr));
  // Lower bound: all demand present at the switch must be served.
  EXPECT_GE(dr + 1e-9, static_cast<double>(adb_hi_total(set, 0)) / s);
  // Upper bound: ADB <= U*D + 2*sum C(HI) (+ carried LO work).
  double k = 0.0;
  for (const McTask& t : set)
    k += static_cast<double>(t.wcet(Mode::HI)) * (t.dropped_in_hi() ? 1.0 : 2.0);
  EXPECT_LE(dr, k / (s - u) + 1e-6);
}

TEST_P(SetInvariantTest, SpeedupInvariantUnderTaskPermutation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const TaskSet set = random_set(rng, 0.6);
  if (set.size() < 2) GTEST_SKIP();
  std::vector<McTask> reversed(set.tasks().rbegin(), set.tasks().rend());
  const TaskSet permuted(std::move(reversed));
  EXPECT_DOUBLE_EQ(min_speedup_value(set), min_speedup_value(permuted));
  EXPECT_DOUBLE_EQ(resetting_time_value(set, 2.5), resetting_time_value(permuted, 2.5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetInvariantTest, testing::Range(1, 13));

}  // namespace
}  // namespace rbs
