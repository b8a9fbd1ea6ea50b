// Tests for scripted arrivals and the UUniFast generator.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "sim/simulate.hpp"

namespace rbs::sim {
namespace {

TEST(ScriptedTest, ExactReleasesAndDemands) {
  const TaskSet set({McTask::lo("a", 5, 50, 50), McTask::lo("b", 5, 50, 50)});
  SimConfig cfg;
  cfg.horizon = 100.0;
  cfg.record_trace = true;
  cfg.scripted_arrivals = {
      {{0.0, 3.0}, {60.0, 2.0}},
      {{10.0, 4.0}},
  };
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_EQ(r.jobs_released, 3u);
  EXPECT_EQ(r.jobs_completed, 3u);
  EXPECT_NEAR(r.busy_time, 3.0 + 2.0 + 4.0, 1e-6);
  std::vector<double> releases;
  for (const TraceEvent& e : r.trace.events)
    if (e.kind == TraceEvent::Kind::kRelease) releases.push_back(e.time);
  EXPECT_EQ(releases, (std::vector<double>{0.0, 10.0, 60.0}));
}

TEST(ScriptedTest, EmptyListReleasesNothing) {
  const TaskSet set({McTask::lo("a", 5, 50, 50), McTask::lo("b", 5, 50, 50)});
  SimConfig cfg;
  cfg.horizon = 100.0;
  cfg.scripted_arrivals = {{{0.0, 5.0}}, {}};
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_EQ(r.jobs_released, 1u);
  EXPECT_EQ(r.task_stats[1].released, 0u);
}

TEST(ScriptedTest, DemandAboveBudgetTriggersSwitch) {
  const TaskSet set = table1_base();
  SimConfig cfg;
  cfg.horizon = 20.0;
  cfg.hi_speed = 2.0;
  cfg.record_trace = true;
  // tau1 overruns (demand 5 > C(LO)=3); tau2 normal.
  cfg.scripted_arrivals = {{{0.0, 5.0}}, {{0.0, 2.0}}};
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_EQ(r.mode_switches, 1u);
  EXPECT_FALSE(r.deadline_missed());
  double switch_time = -1;
  for (const TraceEvent& e : r.trace.events)
    if (e.kind == TraceEvent::Kind::kModeSwitchHi) switch_time = e.time;
  EXPECT_NEAR(switch_time, 3.0, 1e-6);  // budget C(LO)=3 at unit speed
}

TEST(ScriptedTest, DroppedTaskReleaseDeferredPastEpisode) {
  // h overruns at t=2 and stays busy until 2 + 6/2 = 5; the terminated LO
  // task's scripted release at t=3 must slide to the reset.
  const TaskSet set({McTask::hi("h", 2, 8, 4, 10, 10),
                     McTask::lo_terminated("l", 1, 10, 10)});
  SimConfig cfg;
  cfg.horizon = 20.0;
  cfg.hi_speed = 2.0;
  cfg.record_trace = true;
  cfg.scripted_arrivals = {{{0.0, 8.0}}, {{3.0, 1.0}}};
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  double lo_release = -1.0, reset_time = -1.0;
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind == TraceEvent::Kind::kRelease && e.task_index == 1) lo_release = e.time;
    if (e.kind == TraceEvent::Kind::kReset && reset_time < 0) reset_time = e.time;
  }
  ASSERT_GE(reset_time, 0.0);
  EXPECT_NEAR(lo_release, reset_time, 1e-6);
}

TEST(ScriptedTest, DeterministicRegressionScenario) {
  // The full Table I episode as a golden regression: overrun at 3, tau2
  // completes at 4, tau1 at 5, reset at 5 (speed 2).
  const TaskSet set = table1_base();
  SimConfig cfg;
  cfg.horizon = 10.0;
  cfg.hi_speed = 2.0;
  cfg.record_trace = true;
  cfg.scripted_arrivals = {{{0.0, 5.0}}, {{0.0, 2.0}}};
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  ASSERT_EQ(r.hi_dwell_times.size(), 1u);
  EXPECT_NEAR(r.hi_dwell_times[0], 2.0, 1e-6);  // switch at 3, reset at 5
  EXPECT_NEAR(r.task_stats[0].max_response, 5.0, 1e-6);
  EXPECT_NEAR(r.task_stats[1].max_response, 4.0, 1e-6);
}

}  // namespace
}  // namespace rbs::sim

namespace rbs {
namespace {

TEST(UUniFastTest, SumsToTarget) {
  Rng rng(5);
  for (double u : {0.3, 0.7, 1.5})
    for (int n : {1, 3, 10}) {
      const std::vector<double> utils = uunifast(n, u, rng);
      ASSERT_EQ(utils.size(), static_cast<std::size_t>(n));
      const double sum = std::accumulate(utils.begin(), utils.end(), 0.0);
      EXPECT_NEAR(sum, u, 1e-12);
      for (double v : utils) EXPECT_GE(v, 0.0);
    }
}

TEST(UUniFastTest, ZeroTasksEmpty) {
  Rng rng(6);
  EXPECT_TRUE(uunifast(0, 0.5, rng).empty());
}

TEST(UUniFastTest, SetGeneratorProducesValidSkeleton) {
  Rng rng(7);
  UUniFastParams params;
  params.n_tasks = 12;
  params.u_total_lo = 0.6;
  const ImplicitSet set = generate_uunifast_set(params, rng);
  ASSERT_EQ(set.size(), 12u);
  // Rounding drifts the total a little; it must stay in the neighbourhood.
  EXPECT_NEAR(set.u_total_lo(), 0.6, 0.15);
  for (const ImplicitTask& t : set.tasks()) {
    EXPECT_GE(t.c_lo, 1);
    EXPECT_LE(t.c_hi, t.period);
  }
}

TEST(UUniFastTest, DeterministicBySeed) {
  UUniFastParams params;
  Rng a(9), b(9);
  const ImplicitSet sa = generate_uunifast_set(params, a);
  const ImplicitSet sb = generate_uunifast_set(params, b);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa.tasks()[i].period, sb.tasks()[i].period);
    EXPECT_EQ(sa.tasks()[i].c_lo, sb.tasks()[i].c_lo);
  }
}

}  // namespace
}  // namespace rbs
