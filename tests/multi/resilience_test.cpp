// Offline k-failure tolerance analysis (multi/resilience.hpp): validation,
// verdicts, spare assignments and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gen/paper_examples.hpp"
#include "multi/resilience.hpp"

namespace rbs::multi {
namespace {

// A light HI task: U(LO) = 0.1, U(HI) = 0.3.
McTask light_hi(const std::string& name) { return McTask::hi(name, 2, 6, 8, 20, 20); }

// A heavy HI task: U(LO) = 0.25, U(HI) = 0.9 -- two of them on one core need
// more than a 1.5x budget in HI mode.
McTask heavy_hi(const std::string& name) { return McTask::hi(name, 5, 18, 10, 20, 20); }

MultiRequest two_light_cores() {
  MultiRequest request;
  request.set = TaskSet({light_hi("a"), light_hi("b"), McTask::lo("l0", 2, 30, 30),
                         McTask::lo("l1", 2, 30, 30)});
  request.assignment = {{0, 2}, {1, 3}};
  request.budgets.assign(2, CoreBudget{});
  return request;
}

/// The tasks `request` assigns to core `c`, in assignment order.
TaskSet core_set(const MultiRequest& request, std::size_t c) {
  std::vector<McTask> tasks;
  for (std::size_t g : request.assignment[c]) tasks.push_back(request.set[g]);
  return TaskSet(std::move(tasks));
}

/// A fault-free (k = 0) request placing all of `set` on one core.
MultiRequest one_core(const TaskSet& set, const CoreBudget& budget) {
  MultiRequest request;
  request.set = set;
  request.assignment.emplace_back();
  for (std::size_t i = 0; i < set.size(); ++i) request.assignment[0].push_back(i);
  request.budgets = {budget};
  request.tolerance = 0;
  return request;
}

TEST(ResilienceTest, RejectsMalformedRequests) {
  MultiRequest request = two_light_cores();
  request.assignment.clear();
  request.budgets.clear();
  EXPECT_FALSE(analyze_resilience(request).is_ok());

  request = two_light_cores();
  request.budgets.resize(1);
  EXPECT_FALSE(analyze_resilience(request).is_ok());

  request = two_light_cores();
  request.budgets[0].hi_speedup = 0.0;
  EXPECT_FALSE(analyze_resilience(request).is_ok());

  request = two_light_cores();
  request.tolerance = 2;  // no surviving core
  EXPECT_FALSE(analyze_resilience(request).is_ok());

  request = two_light_cores();
  request.assignment = {{0, 2}, {3}};  // task 1 unassigned
  EXPECT_FALSE(analyze_resilience(request).is_ok());

  request = two_light_cores();
  request.assignment = {{0, 2, 1}, {1, 3}};  // task 1 on two cores
  EXPECT_FALSE(analyze_resilience(request).is_ok());

  request = two_light_cores();
  request.max_scenarios = 1;  // 2 cores x 2 classes = 4 scenarios
  EXPECT_FALSE(analyze_resilience(request).is_ok());
}

TEST(ResilienceTest, ToleranceZeroChecksOnlyTheNominalPartition) {
  MultiRequest request = two_light_cores();
  request.tolerance = 0;
  const auto report = analyze_resilience(request);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->nominal_feasible);
  EXPECT_TRUE(report->tolerant);
  EXPECT_EQ(report->scenarios_checked, 0u);
  EXPECT_TRUE(report->scenarios.empty());
  for (std::size_t c = 0; c < 2; ++c) {
    // Each core's verdict and speed margin, from the facade on its set.
    const AnalysisReport full =
        Analyzer().analyze(core_set(request, c), request.budgets[c].hi_speedup).value();
    EXPECT_TRUE(full.system_schedulable);
    EXPECT_GT(full.u_hi, 0.0);
    EXPECT_GT(request.budgets[c].hi_speedup - full.s_min, 0.0);
  }
}

TEST(ResilienceTest, LightPartitionToleratesAnySingleCoreFault) {
  MultiRequest request = two_light_cores();
  const auto report = analyze_resilience(request);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->tolerant);
  // 2 cores x {fail-stop, boost-denied} = 4 scenarios.
  EXPECT_EQ(report->scenarios_checked, 4u);
  EXPECT_EQ(report->scenarios_infeasible, 0u);
  EXPECT_GT(report->analyzer_calls, 0u);

  // The fail-stop of core 0 migrates its HI task to core 1 and loses its LO
  // task outright.
  const FailureScenario* sc = find_scenario(*report, {0}, {CoreFaultClass::kFailStop});
  ASSERT_NE(sc, nullptr);
  EXPECT_TRUE(sc->feasible);
  ASSERT_EQ(sc->migrations.size(), 1u);
  EXPECT_EQ(sc->migrations[0].task, 0u);
  EXPECT_EQ(sc->migrations[0].from_core, 0u);
  EXPECT_EQ(sc->migrations[0].to_core, 1u);
  ASSERT_EQ(sc->lost_lo.size(), 1u);
  EXPECT_EQ(sc->lost_lo[0], 2u);

  // An unenumerated signature is not found.
  EXPECT_EQ(find_scenario(*report, {0, 1},
                          {CoreFaultClass::kFailStop, CoreFaultClass::kFailStop}),
            nullptr);
}

TEST(ResilienceTest, ShedPlanFitsTheReceiversBudget) {
  // Core 0's fail-stop sends h0 to core 1, which takes it only by shedding
  // l1. The set the plan runs there, {h1, l1 terminated, h0}, needs
  // s_min = 11/7 and fits the budget of 2; with l1 still live it would need
  // 13/6.
  const McTask h0 = McTask::hi("h0", 1, 6, 4, 10, 10);
  const McTask h1 = McTask::hi("h1", 2, 5, 5, 10, 10);
  MultiRequest request;
  request.set = TaskSet({h0, h1, McTask::lo("l1", 4, 10, 10)});
  request.assignment = {{0}, {1, 2}};
  request.budgets.assign(2, CoreBudget{2.0, std::numeric_limits<double>::infinity()});
  const auto report = analyze_resilience(request);
  ASSERT_TRUE(report.is_ok());
  const FailureScenario* sc = find_scenario(*report, {0}, {CoreFaultClass::kFailStop});
  ASSERT_NE(sc, nullptr);
  EXPECT_TRUE(sc->feasible);
  ASSERT_EQ(sc->migrations.size(), 1u);
  EXPECT_EQ(sc->migrations[0].task, 0u);
  EXPECT_EQ(sc->migrations[0].to_core, 1u);
  ASSERT_EQ(sc->degraded_lo.size(), 1u);
  EXPECT_EQ(sc->degraded_lo[0].task, 2u);
  EXPECT_EQ(sc->degraded_lo[0].core, 1u);

  AnalysisRequest planned;
  planned.set = TaskSet({h1, McTask::lo_terminated("l1", 4, 10, 10), h0});
  planned.speed = 2.0;
  const auto fit = Analyzer().fits(planned, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(fit.is_ok());
  EXPECT_TRUE(fit->system_schedulable);
  EXPECT_NEAR(analyze(planned)->s_min, 11.0 / 7.0, 1e-12);
  planned.set = TaskSet({h1, McTask::lo("l1", 4, 10, 10), h0});
  EXPECT_NEAR(analyze(planned)->s_min, 13.0 / 6.0, 1e-12);
}

TEST(ResilienceTest, OverloadedMergeIsReportedNotTolerant) {
  // Each core is feasible alone under a 1.5x budget, but the merged pair
  // needs ~1.8x, so neither survivor can absorb the other's task.
  MultiRequest request;
  request.set = TaskSet({heavy_hi("a"), heavy_hi("b")});
  request.assignment = {{0}, {1}};
  CoreBudget budget;
  budget.hi_speedup = 1.5;
  request.budgets.assign(2, budget);
  const auto report = analyze_resilience(request);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->nominal_feasible);
  EXPECT_FALSE(report->tolerant);
  EXPECT_GT(report->scenarios_infeasible, 0u);
  const FailureScenario* sc = find_scenario(*report, {0}, {CoreFaultClass::kFailStop});
  ASSERT_NE(sc, nullptr);
  EXPECT_FALSE(sc->feasible);
  EXPECT_TRUE(sc->migrations.empty());  // nothing fit anywhere
}

TEST(ResilienceTest, BoostDenialOnLoOnlyCoreIsHarmless) {
  MultiRequest request;
  request.set = TaskSet({light_hi("h"), McTask::lo("l", 3, 15, 15)});
  request.assignment = {{1}, {0}};  // core 0 holds only the LO task
  request.budgets.assign(2, CoreBudget{});
  const auto report = analyze_resilience(request);
  ASSERT_TRUE(report.is_ok());
  const FailureScenario* sc = find_scenario(*report, {0}, {CoreFaultClass::kBoostDenied});
  ASSERT_NE(sc, nullptr);
  EXPECT_TRUE(sc->feasible);
  EXPECT_TRUE(sc->migrations.empty());
  EXPECT_TRUE(sc->degraded_lo.empty());
}

TEST(ResilienceTest, DeterministicAcrossRepeatedRuns) {
  const MultiRequest request = two_light_cores();
  const auto a = analyze_resilience(request);
  const auto b = analyze_resilience(request);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_EQ(a->scenarios.size(), b->scenarios.size());
  for (std::size_t i = 0; i < a->scenarios.size(); ++i) {
    const FailureScenario& sa = a->scenarios[i];
    const FailureScenario& sb = b->scenarios[i];
    EXPECT_EQ(sa.faulted, sb.faulted) << "scenario " << i;
    EXPECT_EQ(sa.classes, sb.classes) << "scenario " << i;
    EXPECT_EQ(sa.feasible, sb.feasible) << "scenario " << i;
    ASSERT_EQ(sa.migrations.size(), sb.migrations.size()) << "scenario " << i;
    for (std::size_t m = 0; m < sa.migrations.size(); ++m) {
      EXPECT_EQ(sa.migrations[m].task, sb.migrations[m].task);
      EXPECT_EQ(sa.migrations[m].from_core, sb.migrations[m].from_core);
      EXPECT_EQ(sa.migrations[m].to_core, sb.migrations[m].to_core);
    }
  }
}

TEST(ResilienceTest, InfiniteSMinOrResetTimeIsNeverNominallyFeasible) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // D(LO) = D(HI) with C(HI) > C(LO): s_min = +inf, beyond any budget.
  MultiRequest request = one_core(TaskSet({McTask::hi("a", 2, 3, 5, 5, 10)}), {2.0, kInf});
  auto report = analyze_resilience(request);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(std::isinf(Analyzer().analyze(core_set(request, 0), 2.0).value().s_min));
  EXPECT_FALSE(report->nominal_feasible);
  EXPECT_FALSE(report->tolerant);

  // U_HI = s_min = 1: at speed 1 Delta_R = +inf busts a 100-tick budget.
  request = one_core(TaskSet({McTask::hi("h", 1, 10, 1, 10, 10)}), {1.0, 100.0});
  report = analyze_resilience(request);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(std::isinf(Analyzer().analyze(core_set(request, 0), 1.0).value().delta_r));
  EXPECT_FALSE(report->nominal_feasible);
  EXPECT_FALSE(report->tolerant);
}

TEST(ResilienceTest, InexactSMinIsJudgedWithItsErrorBound) {
  // Two breakpoints stop the speedup search early: the facade reports a
  // lower end s_min below 0.878 with an error bound above the true 12/13,
  // so its verdict at 0.878 must be false -- and the core's with it.
  const double speed = 0.878;
  MultiRequest request =
      one_core(table1_degraded(), {speed, std::numeric_limits<double>::infinity()});
  request.limits.max_breakpoints = 2;
  const AnalysisReport facade =
      analyze({table1_degraded(), speed, 1.0, {}, request.limits}).value();
  ASSERT_FALSE(facade.s_min_exact);
  ASSERT_LT(facade.s_min, speed);
  ASSERT_LT(speed, 12.0 / 13.0);
  EXPECT_FALSE(facade.hi_schedulable);

  const auto report = analyze_resilience(request);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->nominal_feasible);
}

TEST(ResilienceTest, FaultClassNamesAreStable) {
  EXPECT_EQ(to_string(CoreFaultClass::kFailStop), "fail-stop");
  EXPECT_EQ(to_string(CoreFaultClass::kBoostDenied), "boost-denied");
}

}  // namespace
}  // namespace rbs::multi
