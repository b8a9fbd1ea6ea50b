// Integration: partitioned multicore deployment executed per core.
//
// After partition_first_fit splits a workload under per-core budgets, each
// core runs the paper's protocol independently; simulating every core must
// confirm zero misses and bounded dwells on all of them simultaneously.
#include <gtest/gtest.h>

#include <cmath>

#include "core/partition.hpp"
#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "core/tuning.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "sim/simulate.hpp"

namespace rbs {
namespace {

class PartitionSimTest : public testing::TestWithParam<int> {};

TEST_P(PartitionSimTest, EveryCoreExecutesCleanly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  GenParams params;
  params.u_bound = 0.9;  // needs more than one core at modest speedup
  params.period_min = 20;
  params.period_max = 800;
  const auto skeleton = generate_task_set(params, rng);
  if (!skeleton) GTEST_SKIP();
  const MinXResult mx = utilization_min_x(*skeleton);
  if (!mx.feasible) GTEST_SKIP();
  const TaskSet set = skeleton->materialize(mx.x, 2.0);

  PartitionOptions options;
  options.hi_speedup = 1.4;
  const auto cores = cores_needed(set, 6, options);
  if (!cores) GTEST_SKIP();
  const PartitionResult partition = partition_first_fit(set, *cores, options);
  ASSERT_TRUE(partition.feasible);

  for (std::size_t c = 0; c < partition.assignment.size(); ++c) {
    if (partition.assignment[c].empty()) continue;
    std::vector<McTask> tasks;
    for (std::size_t idx : partition.assignment[c]) tasks.push_back(set[idx]);
    const TaskSet core(tasks);
    const double delta_r = resetting_time_value(core, options.hi_speedup);

    sim::SimConfig cfg;
    cfg.horizon = 20000.0;
    cfg.hi_speed = options.hi_speedup;
    cfg.demand.overrun_probability = 0.5;
    cfg.release_jitter = 0.2;
    cfg.seed = static_cast<std::uint64_t>(GetParam()) * 101 + c;
    const sim::SimMetrics r = sim::Simulator().run(core, cfg).value().metrics;
    EXPECT_FALSE(r.deadline_missed()) << "core " << c;
    if (std::isfinite(delta_r))
      for (double dwell : r.hi_dwell_times) EXPECT_LE(dwell, delta_r + 1e-6) << "core " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionSimTest, testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace rbs
