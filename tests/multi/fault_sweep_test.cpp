// Fault sweep: the offline tolerance verdict against the online migrator.
//
// The invariant the whole multicore stack hangs on: in a k = 1-tolerant
// partition, NO HI deadline is missed for ANY single-core failure at seeded
// random instants -- the precomputed spare assignment, applied mid-run by
// MulticoreSim, really does absorb the displaced work. And the verdict is
// not vacuous: a partition the analysis rejects demonstrably misses HI
// deadlines under the same sweep.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/rng.hpp"
#include "multi/resilience.hpp"
#include "sim/multicore.hpp"

namespace rbs::sim {
namespace {

std::uint64_t hi_misses(const TaskSet& set, const SimMetrics& metrics) {
  std::uint64_t count = 0;
  for (const DeadlineMiss& miss : metrics.misses) count += set[miss.task_index].is_hi();
  return count;
}

// The tolerant fixture: two lightly loaded cores, each holding one HI and
// one LO task, under the default 2x budgets. analyze_resilience certifies
// k = 1 for it (asserted below, not assumed).
multi::MultiRequest tolerant_request() {
  multi::MultiRequest request;
  request.set = TaskSet({McTask::hi("h0", 2, 6, 8, 20, 20), McTask::hi("h1", 2, 6, 8, 20, 20),
                         McTask::lo("l0", 2, 30, 30), McTask::lo("l1", 2, 30, 30)});
  request.assignment = {{0, 2}, {1, 3}};
  request.budgets.assign(2, CoreBudget{});
  return request;
}

TEST(FaultSweepTest, TolerantPartitionMissesNoHiDeadlineForAnySingleCoreFailure) {
  const multi::MultiRequest offline = tolerant_request();
  const auto plan = multi::analyze_resilience(offline);
  ASSERT_TRUE(plan.is_ok());
  ASSERT_TRUE(plan->tolerant) << "fixture must be k=1-tolerant for the sweep to mean anything";

  SimConfig base;
  base.horizon = 400.0;
  base.hi_speed = 2.0;
  base.demand.overrun_probability = 0.3;

  Rng sweep_rng(977);
  MulticoreSim sim;
  std::size_t runs = 0;
  for (std::size_t failing_core = 0; failing_core < 2; ++failing_core) {
    for (int instant = 0; instant < 4; ++instant) {
      const double fail_at = sweep_rng.uniform(20.0, 350.0);
      MulticoreRequest request;
      request.set = offline.set;
      request.assignment = offline.assignment;
      request.config = base;
      request.config.seed = 100 + runs;
      request.core_faults.resize(2);
      request.core_faults[failing_core].core_fail_at = fail_at;
      request.plan = &*plan;
      const auto report = sim.run(request);
      ASSERT_TRUE(report.is_ok());
      EXPECT_TRUE(report->completed);
      EXPECT_TRUE(report->used_plan) << "scenario lookup failed for core " << failing_core;
      EXPECT_EQ(report->migrations_applied, 1u);
      EXPECT_EQ(report->forced_migrations, 0u);
      EXPECT_EQ(hi_misses(request.set, report->combined), 0u)
          << "core " << failing_core << " failing at " << fail_at;
      ++runs;
    }
  }
  EXPECT_EQ(runs, 8u);
}

TEST(FaultSweepTest, BoostDenialCoveredByThePlan) {
  const multi::MultiRequest offline = tolerant_request();
  const auto plan = multi::analyze_resilience(offline);
  ASSERT_TRUE(plan.is_ok());
  ASSERT_TRUE(plan->tolerant);

  MulticoreRequest request;
  request.set = offline.set;
  request.assignment = offline.assignment;
  request.config.horizon = 400.0;
  request.config.hi_speed = 2.0;
  request.config.demand.overrun_probability = 0.3;
  request.config.seed = 7;
  request.core_faults.resize(2);
  request.core_faults[0].boost_denied_on_core = true;
  request.plan = &*plan;
  MulticoreSim sim;
  const auto report = sim.run(request);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->used_plan);
  EXPECT_EQ(hi_misses(request.set, report->combined), 0u);
}

TEST(FaultSweepTest, NonTolerantPartitionDemonstrablyMisses) {
  // Each core alone fits its 1.5x budget; the merged pair needs ~1.8x. The
  // analysis rejects k = 1, and the sweep confirms the rejection is earned:
  // the forced best-effort migration overloads the survivor into real HI
  // misses at some failure instant.
  multi::MultiRequest offline;
  offline.set = TaskSet({McTask::hi("a", 5, 18, 10, 20, 20), McTask::hi("b", 5, 18, 10, 20, 20)});
  offline.assignment = {{0}, {1}};
  CoreBudget budget;
  budget.hi_speedup = 1.5;
  offline.budgets.assign(2, budget);
  const auto plan = multi::analyze_resilience(offline);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_TRUE(plan->nominal_feasible);
  ASSERT_FALSE(plan->tolerant);

  SimConfig base;
  base.horizon = 2000.0;
  base.hi_speed = 1.5;
  base.demand.overrun_probability = 0.9;  // keep the survivor in HI mode

  Rng sweep_rng(31);
  MulticoreSim sim;
  std::uint64_t total_hi_misses = 0;
  for (int instant = 0; instant < 4; ++instant) {
    const double fail_at = sweep_rng.uniform(50.0, 500.0);
    MulticoreRequest request;
    request.set = offline.set;
    request.assignment = offline.assignment;
    request.config = base;
    request.config.seed = 40 + static_cast<std::uint64_t>(instant);
    request.core_faults.resize(2);
    request.core_faults[0].core_fail_at = fail_at;
    request.plan = &*plan;
    const auto report = sim.run(request);
    ASSERT_TRUE(report.is_ok());
    // The infeasible scenario has no migration steps, so the displaced task
    // arrives via the forced best-effort path.
    EXPECT_EQ(report->forced_migrations, 1u);
    total_hi_misses += hi_misses(request.set, report->combined);
  }
  EXPECT_GT(total_hi_misses, 0u) << "non-tolerant partition never missed: verdict vacuous?";
}

}  // namespace
}  // namespace rbs::sim
