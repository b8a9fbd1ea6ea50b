// Tests for partitioned multiprocessor allocation.
#include "core/partition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/edf.hpp"
#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "gen/fms.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

TaskSet two_heavy_tasks() {
  // Each task alone fits a unit-speed core (s_min 0.89 resp. 1.0), but the
  // pair's HI-mode demand peaks at 18 work units in a window of 10
  // (s_min = 1.8): one core only works with a ~2x speedup budget.
  return TaskSet({McTask::hi("a", 1, 8, 2, 10, 10), McTask::hi("b", 1, 11, 4, 14, 14)});
}

TEST(PartitionTest, ZeroCoresInfeasible) {
  EXPECT_FALSE(partition_first_fit(two_heavy_tasks(), 0).feasible);
}

TEST(PartitionTest, EmptySetTriviallyFeasible) {
  const PartitionResult r = partition_first_fit(TaskSet{}, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.assignment[0].empty());
}

TEST(PartitionTest, HeavyTasksNeedSeparateCores) {
  PartitionOptions options;
  options.hi_speedup = 1.0;
  EXPECT_FALSE(partition_first_fit(two_heavy_tasks(), 1, options).feasible);
  const PartitionResult r = partition_first_fit(two_heavy_tasks(), 2, options);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.assignment[0].size(), 1u);
  EXPECT_EQ(r.assignment[1].size(), 1u);
}

TEST(PartitionTest, SpeedupBudgetReducesCores) {
  // With a 2x budget both tasks fit one core; without it they need two.
  PartitionOptions fast;
  fast.hi_speedup = 2.0;
  PartitionOptions slow;
  slow.hi_speedup = 1.0;
  EXPECT_EQ(cores_needed(two_heavy_tasks(), 4, fast), std::optional<std::size_t>(1));
  EXPECT_EQ(cores_needed(two_heavy_tasks(), 4, slow), std::optional<std::size_t>(2));
}

TEST(PartitionTest, EveryCoreRespectsBudgets) {
  Rng rng(31);
  GenParams params;
  params.u_bound = 0.9;
  const auto skeleton = generate_task_set(params, rng);
  ASSERT_TRUE(skeleton.has_value());
  const TaskSet set = skeleton->materialize(0.6, 2.0);

  PartitionOptions options;
  options.hi_speedup = 1.5;
  options.max_reset = 5000.0;
  const auto cores = cores_needed(set, 8, options);
  ASSERT_TRUE(cores.has_value());
  const PartitionResult r = partition_first_fit(set, *cores, options);
  ASSERT_TRUE(r.feasible);

  std::size_t assigned = 0;
  for (std::size_t c = 0; c < r.assignment.size(); ++c) {
    assigned += r.assignment[c].size();
    if (r.assignment[c].empty()) continue;
    std::vector<McTask> tasks;
    for (std::size_t idx : r.assignment[c]) tasks.push_back(set[idx]);
    const TaskSet core(tasks);
    EXPECT_TRUE(lo_mode_schedulable(core)) << "core " << c;
    EXPECT_LE(min_speedup_value(core), options.hi_speedup + 1e-9) << "core " << c;
    EXPECT_LE(resetting_time_value(core, options.hi_speedup), options.max_reset + 1e-9);
    EXPECT_NEAR(r.core_s_min[c], min_speedup_value(core), 1e-12);
  }
  EXPECT_EQ(assigned, set.size());  // every task placed exactly once
}

TEST(PartitionTest, RejectedTaskReported) {
  PartitionOptions options;
  options.hi_speedup = 1.0;
  const PartitionResult r = partition_first_fit(two_heavy_tasks(), 1, options);
  ASSERT_FALSE(r.feasible);
  ASSERT_TRUE(r.rejected_task.has_value());
}

TEST(PartitionTest, SpeedupBudgetBoundaryIsToleranceRouted) {
  // A budget sitting exactly on the pair's s_min (or within kSpeedTol of it)
  // must be accepted -- the acceptance reads the facade's hi_schedulable,
  // which judges approx_le(s_min, speed, kSpeedTol) -- while a clearly
  // smaller budget is rejected.
  const TaskSet set = two_heavy_tasks();
  const double s_min = min_speedup_value(set);
  ASSERT_GT(s_min, 1.0);

  PartitionOptions exact;
  exact.hi_speedup = s_min;
  EXPECT_TRUE(partition_first_fit(set, 1, exact).feasible);

  PartitionOptions noise;
  noise.hi_speedup = s_min - 1e-12;  // inside kSpeedTol
  EXPECT_TRUE(partition_first_fit(set, 1, noise).feasible);

  PartitionOptions below;
  below.hi_speedup = s_min - 0.01;  // decisively below
  EXPECT_FALSE(partition_first_fit(set, 1, below).feasible);
}

TEST(PartitionTest, ResetBudgetBoundaryIsToleranceRouted) {
  const TaskSet set = two_heavy_tasks();
  PartitionOptions options;
  options.hi_speedup = 2.0;
  const double delta_r = resetting_time_value(set, options.hi_speedup);
  ASSERT_TRUE(std::isfinite(delta_r));
  ASSERT_GT(delta_r, 0.0);

  options.max_reset = delta_r;  // exactly on the budget: accepted
  EXPECT_TRUE(partition_first_fit(set, 1, options).feasible);

  options.max_reset = delta_r - 1e-9;  // inside kTimeTol: still accepted
  EXPECT_TRUE(partition_first_fit(set, 1, options).feasible);

  options.max_reset = delta_r * 0.5;  // decisively below: rejected
  EXPECT_FALSE(partition_first_fit(set, 1, options).feasible);
}

TEST(PartitionTest, InfiniteSMinOrResetTimeNeverFitsAFiniteBudget) {
  // D(LO) = D(HI) with C(HI) > C(LO): no speed absorbs the overrun, s_min is
  // +inf, and no finite speedup budget may accept the task.
  const TaskSet unprepared({McTask::hi("a", 2, 3, 5, 5, 10)});
  ASSERT_TRUE(std::isinf(min_speedup_value(unprepared)));
  PartitionOptions options;
  options.hi_speedup = 2.0;
  PartitionResult r = partition_first_fit(unprepared, 1, options);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.rejected_task, std::optional<std::size_t>(0));

  // U_HI = s_min = 1: at speed 1 HI mode is schedulable but the supply never
  // catches up, so Delta_R is +inf and busts any finite reset budget.
  const TaskSet saturated({McTask::hi("h", 1, 10, 1, 10, 10)});
  ASSERT_TRUE(std::isinf(resetting_time_value(saturated, 1.0)));
  options.hi_speedup = 1.0;
  options.max_reset = 100.0;
  EXPECT_FALSE(partition_first_fit(saturated, 1, options).feasible);
  options.max_reset = std::numeric_limits<double>::infinity();  // admits anything
  r = partition_first_fit(saturated, 1, options);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(std::isinf(r.core_delta_r[0]));
}

TEST(PartitionTest, ReportsPerCoreResetTimes) {
  PartitionOptions options;
  options.hi_speedup = 2.0;
  const PartitionResult r = partition_first_fit(two_heavy_tasks(), 2, options);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.core_delta_r.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    if (r.assignment[c].empty()) {
      EXPECT_EQ(r.core_delta_r[c], 0.0);
      continue;
    }
    std::vector<McTask> tasks;
    for (std::size_t idx : r.assignment[c]) tasks.push_back(two_heavy_tasks()[idx]);
    EXPECT_NEAR(r.core_delta_r[c], resetting_time_value(TaskSet(tasks), 2.0), 1e-9)
        << "core " << c;
  }
}

TEST(PartitionTest, HeterogeneousBudgetsPerCore) {
  // Core 0 has no speedup headroom, core 1 a 2x budget: the pair must land
  // with at most one task on core 0 and the rest on core 1.
  PartitionOptions options;
  options.core_budgets = {CoreBudget{1.0, std::numeric_limits<double>::infinity()},
                          CoreBudget{2.0, std::numeric_limits<double>::infinity()}};
  const PartitionResult r = partition_first_fit(two_heavy_tasks(), 2, options);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.assignment[0].size(), 1u);

  // A budget vector that does not match the core count is a caller error.
  EXPECT_FALSE(partition_first_fit(two_heavy_tasks(), 3, options).feasible);

  // core_budget() resolves uniform vs heterogeneous.
  EXPECT_EQ(core_budget(options, 1).hi_speedup, 2.0);
  PartitionOptions uniform;
  uniform.hi_speedup = 1.25;
  EXPECT_EQ(core_budget(uniform, 7).hi_speedup, 1.25);
}

TEST(PartitionTest, FmsFitsOneCoreAtTwoX) {
  const TaskSet fms = fms_task_set(2.0).materialize(0.5, 2.0);
  PartitionOptions options;
  options.hi_speedup = 2.0;
  EXPECT_EQ(cores_needed(fms, 4, options), std::optional<std::size_t>(1));
}

}  // namespace
}  // namespace rbs
