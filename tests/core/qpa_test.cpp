// Tests for the QPA LO-mode test: identical verdicts to the forward
// processor-demand sweep, across hand-built and randomized workloads.
#include "core/qpa.hpp"

#include <gtest/gtest.h>

#include "core/dbf.hpp"
#include "core/edf.hpp"
#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

TEST(QpaTest, EmptySetSchedulable) { EXPECT_TRUE(qpa_lo_schedulable(TaskSet{})); }

TEST(QpaTest, SimpleSchedulableAndNot) {
  EXPECT_TRUE(qpa_lo_schedulable(TaskSet({McTask::lo("l", 10, 10, 10)})));
  const TaskSet over({McTask::lo("a", 6, 10, 10), McTask::lo("b", 6, 10, 10)});
  EXPECT_FALSE(qpa_lo_schedulable(over));
}

TEST(QpaTest, ConstrainedDeadlineViolation) {
  const TaskSet set({McTask::lo("a", 2, 2, 100), McTask::lo("b", 2, 2, 100)});
  const EdfTestResult r = qpa_lo_test(set);
  EXPECT_FALSE(r.schedulable);
  // QPA's witness is *a* violating interval; demand must exceed it there.
  EXPECT_GT(dbf_lo_total(set, r.violation_delta),
            static_cast<Ticks>(r.violation_delta));
}

TEST(QpaTest, SpeedParameterScalesSupply) {
  const TaskSet set({McTask::lo("a", 2, 2, 100), McTask::lo("b", 2, 2, 100)});
  EXPECT_FALSE(qpa_lo_schedulable(set, 1.0));
  EXPECT_TRUE(qpa_lo_schedulable(set, 2.0));
}

TEST(QpaTest, FullUtilizationImplicit) {
  const TaskSet set({McTask::lo("a", 5, 10, 10), McTask::lo("b", 10, 20, 20)});
  EXPECT_TRUE(qpa_lo_schedulable(set));
}

TEST(QpaTest, Table1Sets) {
  EXPECT_TRUE(qpa_lo_schedulable(table1_base()));
  EXPECT_TRUE(qpa_lo_schedulable(table1_degraded()));
}

TEST(QpaTest, AgreesWithForwardSweepExhaustively) {
  // Small-parameter family: both algorithms must give identical verdicts.
  for (Ticks d1 = 2; d1 <= 6; ++d1)
    for (Ticks c1 = 1; c1 <= d1; ++c1)
      for (Ticks c2 = 1; c2 <= 4; ++c2)
        for (Ticks d2 = c2; d2 <= 9; d2 += 2) {
          const TaskSet set({McTask::lo("a", c1, d1, 7), McTask::lo("b", c2, d2, 9)});
          EXPECT_EQ(qpa_lo_schedulable(set), lo_mode_schedulable(set))
              << describe(set[0]) << " | " << describe(set[1]);
        }
}

class QpaRandomTest : public testing::TestWithParam<int> {};

TEST_P(QpaRandomTest, AgreesWithForwardSweepOnRandomSets) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  GenParams params;
  params.period_min = 10;
  params.period_max = 1000;
  for (double u : {0.4, 0.6, 0.8, 0.95}) {
    params.u_bound = u;
    for (int i = 0; i < 25; ++i) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      // Random x stresses constrained deadlines (the interesting case).
      const double x = rng.uniform(0.05, 1.0);
      const TaskSet set = skeleton->materialize(x, 2.0);
      for (double speed : {0.8, 1.0, 1.3}) {
        EXPECT_EQ(qpa_lo_schedulable(set, speed), lo_mode_schedulable(set, speed))
            << "u=" << u << " x=" << x << " speed=" << speed << " trial=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpaRandomTest, testing::Values(1, 2, 3, 4, 5));

TEST(QpaTest, ConvergesInFewIterations) {
  Rng rng(77);
  GenParams params;
  params.u_bound = 0.9;
  const auto skeleton = generate_task_set(params, rng);
  ASSERT_TRUE(skeleton.has_value());
  const TaskSet set = skeleton->materialize(0.5, 2.0);
  const EdfTestResult fwd = lo_mode_test(set);
  const EdfTestResult qpa = qpa_lo_test(set);
  EXPECT_EQ(fwd.schedulable, qpa.schedulable);
  // The whole point of QPA: far fewer evaluation points.
  EXPECT_LT(qpa.breakpoints_visited, 200u);
}

// --- boundary-schedulability regressions (tolerance policy, PR 2) ---------
// Mirrors EdfBoundaryTest: QPA must agree with the forward sweep on the
// exact U = speed / zero-slack breakpoints routed through the tolerance
// policy, not just in the interior.

TEST(QpaBoundaryTest, ExactFullUtilizationStaysSchedulable) {
  const TaskSet set({McTask::lo("a", 1, 2, 2), McTask::lo("b", 1, 2, 2)});
  const EdfTestResult r = qpa_lo_test(set);
  EXPECT_TRUE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
}

TEST(QpaBoundaryTest, InexactFullUtilizationStaysSchedulable) {
  // Ten adds of 0.1 leave U an ulp short of 1; see EdfBoundaryTest.
  std::vector<McTask> tasks;
  for (int i = 0; i < 10; ++i)
    tasks.push_back(McTask::lo("t" + std::to_string(i), 1, 10, 10));
  const TaskSet set(tasks);
  const EdfTestResult r = qpa_lo_test(set);
  EXPECT_TRUE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
}

TEST(QpaBoundaryTest, ZeroSlackWitnessAgreesWithForwardSweep) {
  // Demand touches supply exactly at delta = 2 (slack 0 at a breakpoint).
  const TaskSet set({McTask::lo("a", 2, 2, 4), McTask::lo("b", 1, 4, 4)});
  EXPECT_TRUE(qpa_lo_schedulable(set));
  EXPECT_EQ(qpa_lo_schedulable(set), lo_mode_schedulable(set));
}

TEST(QpaBoundaryTest, FullUtilizationWithConstrainedDeadlineIsDecided) {
  // U = 1 with D < T for one task: the same hyperperiod window (H = 180) as
  // EdfBoundaryTest, a handful of backward steps.
  const TaskSet set({McTask::lo("a", 10, 25, 30), McTask::lo("b", 20, 60, 60),
                     McTask::lo("c", 30, 90, 90)});
  const EdfTestResult r = qpa_lo_test(set);
  EXPECT_TRUE(r.schedulable);
  EXPECT_TRUE(r.conclusive);
  EXPECT_LE(r.breakpoints_visited, 10u);
}

TEST(QpaBoundaryTest, UtilizationWithinToleranceIsComparedExactly) {
  // U exceeds 1 by 6.7e-10 (inside kSpeedTol) with implicit deadlines.
  const TaskSet above({McTask::lo("a", 1, 3, 3), McTask::lo("b", 1, 3, 3),
                       McTask::lo("c", 333'333'334, 1'000'000'000, 1'000'000'000)});
  EXPECT_FALSE(qpa_lo_schedulable(above));
  EXPECT_EQ(qpa_lo_schedulable(above), lo_mode_schedulable(above));
}

TEST(QpaBoundaryTest, DefinitelyOverloadedStillRejected) {
  const TaskSet set({McTask::lo("a", 6, 10, 10), McTask::lo("b", 6, 10, 10)});
  EXPECT_FALSE(qpa_lo_schedulable(set));
}

}  // namespace
}  // namespace rbs
