// Tests for JSON trace export and the per-task runtime statistics.
#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include "gen/paper_examples.hpp"
#include "sim/simulate.hpp"

namespace rbs::sim {
namespace {

SimMetrics run_table1(bool trace) {
  SimConfig cfg;
  cfg.horizon = 40.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  cfg.record_trace = trace;
  return Simulator().run(table1_base(), cfg).value().metrics;
}

TEST(TraceJsonTest, ContainsAllSections) {
  const std::string json = trace_to_json(table1_base(), run_table1(true));
  EXPECT_NE(json.find("\"tasks\": [\"tau1\", \"tau2\"]"), std::string::npos);
  EXPECT_NE(json.find("\"segments\": ["), std::string::npos);
  EXPECT_NE(json.find("\"events\": ["), std::string::npos);
  EXPECT_NE(json.find("\"summary\": {"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"HI\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"switch->HI\""), std::string::npos);
}

TEST(TraceJsonTest, BalancedBracesAndBrackets) {
  const std::string json = trace_to_json(table1_base(), run_table1(true));
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceJsonTest, EscapesSpecialCharactersInNames) {
  const TaskSet odd({McTask::lo("we\"ird\\name", 1, 10, 10)});
  SimConfig cfg;
  cfg.horizon = 5.0;
  cfg.record_trace = true;
  const std::string json = trace_to_json(odd, Simulator().run(odd, cfg).value().metrics);
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(TraceJsonTest, EmptyTraceStillValid) {
  const std::string json = trace_to_json(table1_base(), run_table1(false));
  EXPECT_NE(json.find("\"segments\": [\n  ]"), std::string::npos);
}

TEST(TaskStatsTest, CountsPerTask) {
  const SimMetrics r = run_table1(false);
  ASSERT_EQ(r.task_stats.size(), 2u);
  // tau1: T=7 over horizon 40 -> releases at 0,7,...,35 (6); tau2: T=15 -> 3.
  EXPECT_EQ(r.task_stats[0].released, 6u);
  EXPECT_EQ(r.task_stats[1].released, 3u);
  EXPECT_EQ(r.task_stats[0].released + r.task_stats[1].released, r.jobs_released);
  EXPECT_EQ(r.task_stats[0].misses + r.task_stats[1].misses, r.misses.size());
}

TEST(TaskStatsTest, ResponseTimesWithinDeadlines) {
  const SimMetrics r = run_table1(false);
  // No misses (s=2 >= s_min): responses bounded by the HI-mode deadlines.
  ASSERT_FALSE(r.deadline_missed());
  EXPECT_GT(r.task_stats[0].max_response, 0.0);
  EXPECT_LE(r.task_stats[0].max_response, 7.0 + 1e-6);
  EXPECT_LE(r.task_stats[1].max_response, 5.0 + 1e-6);
}

TEST(BurstSeparationTest, SwitchesAreSeparated) {
  SimConfig cfg;
  cfg.horizon = 5000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  cfg.min_overrun_separation = 50.0;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  EXPECT_GT(r.mode_switches, 1u);
  double last_switch = -1e18;
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind != TraceEvent::Kind::kModeSwitchHi) continue;
    EXPECT_GE(e.time - last_switch, 50.0 - 1e-6);
    last_switch = e.time;
  }
}

TEST(BurstSeparationTest, ZeroSeparationAllowsClustering) {
  SimConfig cfg;
  cfg.horizon = 5000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  const SimMetrics clustered = Simulator().run(table1_base(), cfg).value().metrics;
  cfg.min_overrun_separation = 100.0;
  const SimMetrics separated = Simulator().run(table1_base(), cfg).value().metrics;
  EXPECT_GT(clustered.mode_switches, separated.mode_switches);
}

TEST(BurstSeparationTest, DutyCycleRespectsAnalyticBound) {
  SimConfig cfg;
  cfg.horizon = 50000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  cfg.min_overrun_separation = 60.0;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  double boosted = 0.0;
  for (double d : r.hi_dwell_times) boosted += d;
  // Delta_R(2) = 6, T_O = 60: duty cycle <= 10% (+ one-burst edge effect).
  EXPECT_LE(boosted / cfg.horizon, 6.0 / 60.0 + 6.0 / cfg.horizon + 1e-9);
}

}  // namespace
}  // namespace rbs::sim
