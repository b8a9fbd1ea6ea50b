// Additional simulator coverage: idle behaviour, per-episode accounting, and
// work-conservation invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/paper_examples.hpp"
#include "sim/simulate.hpp"

namespace rbs::sim {
namespace {

TEST(IdleTest, NoResetEventsInPureLoMode) {
  SimConfig cfg;
  cfg.horizon = 1000.0;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;  // no overruns
  for (const TraceEvent& e : r.trace.events) {
    EXPECT_NE(e.kind, TraceEvent::Kind::kReset);
    EXPECT_NE(e.kind, TraceEvent::Kind::kModeSwitchHi);
  }
  EXPECT_TRUE(r.hi_dwell_times.empty());
}

TEST(IdleTest, IdleSegmentsRecordedWithoutTask) {
  const TaskSet set({McTask::lo("l", 1, 10, 10)});
  SimConfig cfg;
  cfg.horizon = 20.0;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  bool saw_idle = false;
  for (const TraceSegment& s : r.trace.segments) saw_idle |= s.task_index < 0;
  EXPECT_TRUE(saw_idle);
}

TEST(AccountingTest, EveryEpisodeHasOneDwell) {
  SimConfig cfg;
  cfg.horizon = 20000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 0.5;
  cfg.seed = 17;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  EXPECT_EQ(r.hi_dwell_times.size() + (r.ended_in_hi_mode ? 1 : 0), r.mode_switches);
}

TEST(AccountingTest, BusyTimeNeverExceedsHorizon) {
  SimConfig cfg;
  cfg.horizon = 5000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  EXPECT_LE(r.busy_time, cfg.horizon + 1e-6);
  EXPECT_GT(r.busy_time, 0.0);
}

TEST(AccountingTest, CompletedPlusPendingEqualsReleased) {
  SimConfig cfg;
  cfg.horizon = 5000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 0.4;
  cfg.seed = 23;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  // No abandonment configured: completions can lag releases only by the jobs
  // still in flight at the horizon (at most one per task here).
  EXPECT_LE(r.jobs_released - r.jobs_completed, 2u);
  EXPECT_EQ(r.jobs_abandoned, 0u);
}

TEST(AccountingTest, WorkConservationAgainstTrace) {
  // Executed work (integral of speed over busy segments) must equal the
  // total demand of completed jobs plus at most the in-flight remainder.
  SimConfig cfg;
  cfg.horizon = 2000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  double executed = 0.0;
  for (const TraceSegment& s : r.trace.segments)
    if (s.task_index >= 0) executed += (s.end - s.start) * s.speed;
  // Every tau1 job demands 5, every tau2 job 2 (p = 1, full overrun).
  const double completed_demand = 5.0 * static_cast<double>(r.task_stats[0].completed) +
                                  2.0 * static_cast<double>(r.task_stats[1].completed);
  EXPECT_GE(executed + 1e-6, completed_demand);
  EXPECT_LE(executed, completed_demand + 5.0 + 2.0 + 1e-6);
}

TEST(AccountingTest, ResponseNeverBelowDemandOverSpeed) {
  SimConfig cfg;
  cfg.horizon = 5000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  // tau1 always demands 5; even at full boost it needs >= 5/2 time units.
  EXPECT_GE(r.task_stats[0].max_response, 5.0 / 2.0 - 1e-6);
}

}  // namespace
}  // namespace rbs::sim
