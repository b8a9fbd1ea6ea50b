// Tests for the turbo-budget runtime fallback: when a HI-mode episode
// exceeds the allowed boost duration, the simulator drops to nominal speed
// and terminates the LO tasks (Section IV remark).
#include <gtest/gtest.h>

#include "core/budget.hpp"
#include "core/speedup.hpp"
#include "sim/simulate.hpp"

namespace rbs::sim {
namespace {

// A HI task that overruns every period plus a LO task (s_min = 4/3): at 1.5x
// each episode lasts (8-2)/1.5 = 4 plus LO interference, comfortably over a
// boost budget of 2.
TaskSet long_episode_set() {
  return TaskSet({McTask::hi("h", 2, 8, 4, 10, 10), McTask::lo("l", 1, 5, 5)});
}

SimConfig overrunning(double horizon) {
  SimConfig cfg;
  cfg.horizon = horizon;
  cfg.demand.overrun_probability = 1.0;
  cfg.hi_speed = 1.5;
  cfg.record_trace = true;
  return cfg;
}

TEST(BudgetFallbackTest, DisabledByDefault) {
  const SimMetrics r = Simulator().run(long_episode_set(), overrunning(200.0)).value().metrics;
  EXPECT_EQ(r.budget_fallbacks, 0u);
}

TEST(BudgetFallbackTest, TriggersAfterBudget) {
  SimConfig cfg = overrunning(200.0);
  cfg.max_boost_duration = 2.0;
  const SimMetrics r = Simulator().run(long_episode_set(), cfg).value().metrics;
  EXPECT_GT(r.budget_fallbacks, 0u);
  // Fallback events sit exactly budget-after their switch events.
  double switch_time = -1.0;
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind == TraceEvent::Kind::kModeSwitchHi) switch_time = e.time;
    if (e.kind == TraceEvent::Kind::kBudgetFallback) {
      ASSERT_GE(switch_time, 0.0);
      EXPECT_NEAR(e.time - switch_time, 2.0, 1e-6);
    }
  }
}

TEST(BudgetFallbackTest, SpeedReturnsToNominalDuringFallback) {
  SimConfig cfg = overrunning(60.0);
  cfg.max_boost_duration = 2.0;
  const SimMetrics r = Simulator().run(long_episode_set(), cfg).value().metrics;
  double fallback_at = -1.0, reset_at = -1.0;
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind == TraceEvent::Kind::kBudgetFallback && fallback_at < 0) fallback_at = e.time;
    if (e.kind == TraceEvent::Kind::kReset && fallback_at >= 0 && reset_at < 0)
      reset_at = e.time;
  }
  ASSERT_GE(fallback_at, 0.0);
  ASSERT_GE(reset_at, 0.0);
  for (const TraceSegment& s : r.trace.segments)
    if (s.start >= fallback_at && s.end <= reset_at && s.task_index >= 0)
      EXPECT_DOUBLE_EQ(s.speed, 1.0) << "boosted execution after fallback at " << s.start;
}

TEST(BudgetFallbackTest, LoJobsAbandonedAndReleasesSuppressed) {
  SimConfig cfg = overrunning(200.0);
  cfg.max_boost_duration = 1.0;
  const SimMetrics r = Simulator().run(long_episode_set(), cfg).value().metrics;
  EXPECT_GT(r.jobs_abandoned, 0u);
  // No LO release between a fallback and the following reset.
  double fallback_since = -1.0;
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind == TraceEvent::Kind::kBudgetFallback) fallback_since = e.time;
    if (e.kind == TraceEvent::Kind::kReset) fallback_since = -1.0;
    if (e.kind == TraceEvent::Kind::kRelease && e.task_index == 1)
      EXPECT_LT(fallback_since, 0.0) << "LO release during fallback at " << e.time;
  }
}

TEST(BudgetFallbackTest, HiDeadlinesSafeWhenFallbackIsAdmissible) {
  // check_turbo_envelope certifies the fallback offline; the executed
  // schedule must then be miss-free even with an aggressively short budget.
  const TaskSet set = long_episode_set();
  TurboEnvelope env;
  env.max_speedup = 1.5;
  env.max_boost_ticks = 2.0;
  const TurboReport report = check_turbo_envelope(set, env);
  ASSERT_TRUE(report.fallback_safe);
  ASSERT_TRUE(report.admissible);

  SimConfig cfg = overrunning(5000.0);
  cfg.max_boost_duration = 2.0;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_GT(r.budget_fallbacks, 0u);
  EXPECT_FALSE(r.deadline_missed());
}

TEST(BudgetFallbackTest, ResetClearsFallbackAndServiceResumes) {
  SimConfig cfg = overrunning(400.0);
  cfg.max_boost_duration = 1.0;
  const SimMetrics r = Simulator().run(long_episode_set(), cfg).value().metrics;
  // After each reset the LO task must release again in LO mode.
  bool saw_lo_release_after_reset = false;
  double last_reset = -1.0;
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind == TraceEvent::Kind::kReset) last_reset = e.time;
    if (e.kind == TraceEvent::Kind::kRelease && e.task_index == 1 && last_reset >= 0)
      saw_lo_release_after_reset = true;
  }
  EXPECT_TRUE(saw_lo_release_after_reset);
  EXPECT_GT(r.hi_dwell_times.size(), 0u);
}

TEST(BudgetFallbackTest, GenerousBudgetNeverTriggers) {
  SimConfig cfg = overrunning(200.0);
  cfg.max_boost_duration = 1000.0;
  const SimMetrics r = Simulator().run(long_episode_set(), cfg).value().metrics;
  EXPECT_EQ(r.budget_fallbacks, 0u);
  EXPECT_GT(r.mode_switches, 0u);
}

}  // namespace
}  // namespace rbs::sim
