// Differential tests of the LO-mode test: the forward walk lo_mode_test
// (core/edf.hpp) against QPA, the backward iteration kept as a test oracle in
// reference_qpa.hpp, across hand-built and randomized workloads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/dbf.hpp"
#include "core/edf.hpp"
#include "core/reference_qpa.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

TEST(QpaTest, AgreesWithForwardSweepExhaustively) {
  // Small-parameter family: both algorithms must give identical verdicts.
  for (Ticks d1 = 2; d1 <= 6; ++d1)
    for (Ticks c1 = 1; c1 <= d1; ++c1)
      for (Ticks c2 = 1; c2 <= 4; ++c2)
        for (Ticks d2 = c2; d2 <= 9; d2 += 2) {
          const TaskSet set({McTask::lo("a", c1, d1, 7), McTask::lo("b", c2, d2, 9)});
          EXPECT_EQ(reference::qpa_lo_schedulable(set), lo_mode_schedulable(set))
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
      EXPECT_EQ(reference::qpa_lo_schedulable(set), lo_mode_schedulable(set))
          << "u=" << u << " x=" << x << " trial=" << i;
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
  const EdfTestResult qpa = reference::qpa_lo_test(set);
  EXPECT_EQ(fwd.schedulable, qpa.schedulable);
  // QPA's point on such a set: far fewer evaluation points.
  EXPECT_LT(qpa.breakpoints_visited, 200u);
}

TEST(QpaTest, NearCriticalWideWindowIsDecidedByTheForwardWalk) {
  // Twenty tasks with D = T/2, C = T/20 - 1 and distinct periods near 10^10:
  // U = 1 - 3e-9 is definitely below 1, H overflows, and L_a is capped at
  // kInfTicks - 1. The demand first exceeds Delta at the eleventh deadline,
  // where it is 5,499,999,996 > 5,000,000,021.
  std::vector<McTask> tasks;
  for (Ticks i = 0; i < 20; ++i) {
    const Ticks period = 2 * (5'000'000'000 + 2 * i + 1);
    tasks.push_back(McTask::lo("t" + std::to_string(i), period / 20 - 1, period / 2, period));
  }
  const TaskSet set(tasks);
  ASSERT_EQ(LoDemandTable(set).window().last, kInfTicks - 1);

  const EdfTestResult walked = lo_mode_test(set);
  EXPECT_FALSE(walked.schedulable);
  EXPECT_TRUE(walked.conclusive);
  EXPECT_EQ(walked.violation_delta, 5'000'000'021);
  EXPECT_EQ(walked.breakpoints_visited, 11u);
  const AnalysisReport report =
      analyze({set, 1.0, {.speedup = false, .reset = false, .lo = true}, {}}).value();
  EXPECT_FALSE(report.lo_schedulable);
  EXPECT_EQ(report.lo_breakpoints, 11u);

  // QPA starts at the top of the window, and each backward step shrinks t
  // by about 3e-9 of itself, so QPA runs out of any budget without a
  // verdict: it agrees that the set is not schedulable, inconclusively.
  const EdfTestResult qpa = reference::qpa_lo_test(set, 1'000);
  EXPECT_EQ(qpa.schedulable, walked.schedulable);
  EXPECT_FALSE(qpa.conclusive);
}

TEST(QpaTest, AgreesWhereDemandPasses2Pow59) {
  // Twenty tasks with U = 0.999 and one constrained deadline: the window is
  // kInfTicks - 1, and near its top the demand, still within Delta, passes
  // 2^59. The forward walk keeps it in Ticks (U <= 1 bounds it by about
  // 2^61), QPA in 128 bits.
  std::vector<McTask> tasks;
  for (Ticks i = 0; i < 20; ++i) {
    const Ticks period = 100'000'000'000'000'000 + 2 * i + 1;
    const Ticks deadline = i == 0 ? period - 30'000'000'000'000'000 : period;
    tasks.push_back(
        McTask::lo("t" + std::to_string(i), period / 20 - period / 20'000, deadline, period));
  }
  const TaskSet set(tasks);
  const LoWindow window = LoDemandTable(set).window();
  ASSERT_EQ(window.last, kInfTicks - 1);
  ASSERT_GT(dbf_lo_total(set, window.last), Ticks{1} << 59);

  const EdfTestResult walked = lo_mode_test(set);
  EXPECT_TRUE(walked.schedulable);
  EXPECT_TRUE(walked.conclusive);
  EXPECT_EQ(walked.breakpoints_visited, 220u);
  const EdfTestResult qpa = reference::qpa_lo_test(set);
  EXPECT_TRUE(qpa.schedulable);
  EXPECT_TRUE(qpa.conclusive);
}

}  // namespace
}  // namespace rbs
