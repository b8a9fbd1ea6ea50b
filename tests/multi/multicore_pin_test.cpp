// Pins the multicore outputs of one fixed 4-core system at k = 1: the
// first-fit assignment, the scenario count, the analyzer-call count, the
// tolerance verdict, and every scenario's migrations and shed lists. The
// system was drawn like rbs_bench's multicore_k1 items (paper generator at
// 0.35 per core on the harmonic period grid, C(LO) in 3-tick quanta, exact
// min-x) but prepared at y = 1.2 and certified at s = 1.8, where fail-stops
// migrate HI tasks, boost denials shed LO tasks locally, and one receiver
// sheds its own LO task to take a migrated one. A change to how probes or
// fallback tiers are searched must leave all of it unchanged.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "multi/resilience.hpp"

namespace rbs {
namespace {

TaskSet pinned_system() {
  return TaskSet({
      McTask::lo("t0", 480, 5000, 5000, 6000, 6000),
      McTask::hi("t1", 228, 611, 231, 2000, 2000),
      McTask::lo("t2", 339, 10000, 10000, 12000, 12000),
      McTask::lo("t3", 447, 10000, 10000, 12000, 12000),
      McTask::hi("t4", 36, 49, 288, 2500, 2500),
      McTask::lo("t5", 129, 10000, 10000, 12000, 12000),
      McTask::lo("t6", 3, 200, 200, 240, 240),
      McTask::lo("t7", 15, 1000, 1000, 1200, 1200),
      McTask::lo("t8", 978, 5000, 5000, 6000, 6000),
      McTask::hi("t9", 255, 402, 279, 2500, 2500),
      McTask::hi("t10", 24, 47, 111, 1000, 1000),
      McTask::hi("t11", 135, 214, 558, 5000, 5000),
      McTask::hi("t12", 321, 583, 363, 2500, 2500),
      McTask::lo("t13", 540, 10000, 10000, 12000, 12000),
      McTask::hi("t14", 18, 22, 36, 250, 250),
      McTask::lo("t15", 48, 2000, 2000, 2400, 2400),
      McTask::lo("t16", 6, 250, 250, 300, 300),
      McTask::lo("t17", 129, 2500, 2500, 3000, 3000),
      McTask::hi("t18", 327, 694, 465, 5000, 5000),
      McTask::hi("t19", 84, 217, 465, 5000, 5000),
      McTask::lo("t20", 9, 200, 200, 240, 240),
      McTask::lo("t21", 15, 250, 250, 300, 300),
      McTask::lo("t22", 786, 5000, 5000, 6000, 6000),
      McTask::hi("t23", 21, 53, 186, 2000, 2000),
  });
}

constexpr double kSpeed = 1.8;
constexpr auto kFailStop = multi::CoreFaultClass::kFailStop;
constexpr auto kBoostDenied = multi::CoreFaultClass::kBoostDenied;

/// One scenario's plan: (task, from, to) migrations and (task, core) sheds.
struct PinnedScenario {
  std::size_t core;
  multi::CoreFaultClass fault;
  bool feasible;
  std::vector<std::array<std::size_t, 3>> migrations;
  std::vector<std::array<std::size_t, 2>> shed;
};

const std::vector<std::vector<std::size_t>> kAssignment = {
    {1, 8, 22, 0, 21, 13, 17, 3, 11, 2, 19, 16}, {12, 14, 15, 6, 7, 5}, {9, 20}, {18, 10, 23, 4}};

multi::MultiReport resilience(const TaskSet& set, double max_reset) {
  multi::MultiRequest request;
  request.set = set;
  request.assignment = kAssignment;
  request.budgets.assign(kAssignment.size(), CoreBudget{kSpeed, max_reset});
  request.tolerance = 1;
  return multi::analyze_resilience(request).value();
}

void expect_scenarios(const multi::MultiReport& report,
                      const std::vector<PinnedScenario>& expected) {
  ASSERT_EQ(report.scenarios.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const multi::FailureScenario& sc = report.scenarios[i];
    const PinnedScenario& pin = expected[i];
    SCOPED_TRACE("core " + std::to_string(pin.core) + " " + multi::to_string(pin.fault));
    EXPECT_EQ(sc.faulted, std::vector<std::size_t>{pin.core});
    EXPECT_EQ(sc.classes, std::vector<multi::CoreFaultClass>{pin.fault});
    EXPECT_EQ(sc.feasible, pin.feasible);
    std::vector<std::array<std::size_t, 3>> migrations;
    for (const multi::MigrationStep& m : sc.migrations)
      migrations.push_back({m.task, m.from_core, m.to_core});
    EXPECT_EQ(migrations, pin.migrations);
    std::vector<std::array<std::size_t, 2>> shed;
    for (const multi::ShedStep& s : sc.degraded_lo) shed.push_back({s.task, s.core});
    EXPECT_EQ(shed, pin.shed);
  }
}

TEST(MulticorePinTest, PartitionAssignmentIsPinned) {
  PartitionOptions options;
  options.hi_speedup = kSpeed;
  const PartitionResult partition = partition_first_fit(pinned_system(), 4, options);
  ASSERT_TRUE(partition.feasible);
  EXPECT_EQ(partition.assignment, kAssignment);
}

TEST(MulticorePinTest, ResilienceWithoutResetBudgetIsPinned) {
  const multi::MultiReport report =
      resilience(pinned_system(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(report.nominal_feasible);
  EXPECT_FALSE(report.tolerant);
  EXPECT_EQ(report.scenarios_checked, 8u);
  EXPECT_EQ(report.analyzer_calls, 34u);
  expect_scenarios(report, {
                               {0, kFailStop, false, {{19, 0, 2}, {11, 0, 3}}, {}},
                               {0, kBoostDenied, true, {}, {{8, 0}, {22, 0}, {0, 0}}},
                               {1, kFailStop, false, {{14, 1, 3}}, {}},
                               {1, kBoostDenied, true, {}, {}},
                               {2, kFailStop, false, {}, {}},
                               {2, kBoostDenied, true, {}, {}},
                               {3, kFailStop, false, {{4, 3, 0}}, {{8, 0}}},
                               {3, kBoostDenied, true, {}, {}},
                           });
}

TEST(MulticorePinTest, ResilienceWithResetBudgetIsPinned) {
  // An 800-tick dwell budget: the Delta_R verdicts now bind.
  const multi::MultiReport report = resilience(pinned_system(), 800.0);
  EXPECT_FALSE(report.tolerant);
  EXPECT_EQ(report.scenarios_checked, 8u);
  EXPECT_EQ(report.analyzer_calls, 57u);
  expect_scenarios(report, {
                               {0, kFailStop, false, {{19, 0, 2}, {11, 0, 3}}, {}},
                               {0, kBoostDenied, false, {{19, 0, 2}, {11, 0, 3}}, {}},
                               {1, kFailStop, false, {{14, 1, 3}}, {}},
                               {1, kBoostDenied, false, {{14, 1, 3}}, {}},
                               {2, kFailStop, false, {}, {}},
                               {2, kBoostDenied, true, {}, {}},
                               {3, kFailStop, false, {}, {}},
                               {3, kBoostDenied, false, {}, {}},
                           });
}

}  // namespace
}  // namespace rbs
