// Regression suite for the trace watchdog (sim/watchdog.hpp): fault-free
// runs certify clean, boost-denied misses are licensed exactly when the
// degraded-guarantee analysis says so, and hand-scripted invariant breaks
// are caught as structured violations.
#include "sim/watchdog.hpp"

#include <gtest/gtest.h>

#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "gen/paper_examples.hpp"
#include "sim/simulate.hpp"

namespace rbs::sim {
namespace {

// HI-mode utilization 6/6 + 2/4 = 1.5 > 1: sustained overruns overload the
// processor at unit speed, so a denied boost guarantees deadline misses.
// LO mode (C(LO)/D(LO) slack everywhere) stays schedulable at unit speed.
TaskSet overload_set() {
  return TaskSet({
      McTask::hi("A", /*c_lo=*/2, /*c_hi=*/6, /*lo_deadline=*/4, /*deadline=*/6, /*period=*/6),
      McTask::hi("B", /*c_lo=*/1, /*c_hi=*/2, /*lo_deadline=*/2, /*deadline=*/4, /*period=*/4),
  });
}

TEST(WatchdogCleanRunTest, NoFaultAtExactSMinHasZeroViolations) {
  const TaskSet set = table1_base();
  const double s_min = min_speedup_value(set);  // 4/3
  SimConfig cfg;
  cfg.horizon = 5000.0;
  cfg.hi_speed = s_min;
  cfg.demand.overrun_probability = 1.0;
  cfg.record_trace = true;

  const SimMetrics result = Simulator().run(set, cfg).value().metrics;
  ASSERT_GT(result.mode_switches, 0u);
  ASSERT_TRUE(result.misses.empty());

  WatchdogOptions opts;
  opts.delta_r_bound = resetting_time_value(set, s_min);
  const WatchdogReport report = check_trace(set, cfg, result, opts);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0].detail);
  EXPECT_GT(report.events_checked, 0u);
  EXPECT_GT(report.segments_checked, 0u);
  EXPECT_GT(report.dwells_checked, 0u);
}

TEST(WatchdogCleanRunTest, CleanRunWithJitterAndOffsets) {
  const TaskSet set = table1_base();
  SimConfig cfg;
  cfg.horizon = 5000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 0.4;
  cfg.release_jitter = 0.25;
  cfg.initial_offset_spread = 0.5;
  cfg.record_trace = true;
  cfg.seed = 11;

  const SimMetrics result = Simulator().run(set, cfg).value().metrics;
  WatchdogOptions opts;
  opts.delta_r_bound = resetting_time_value(set, 2.0);  // Delta_R(2) = 6
  EXPECT_TRUE(check_trace(set, cfg, result, opts).ok());
}

TEST(WatchdogLicenseTest, BoostDeniedMissesAreLicensed) {
  const TaskSet set = overload_set();
  const double s_min = min_speedup_value(set);
  ASSERT_GT(s_min, 1.0);

  SimConfig cfg;
  cfg.horizon = 600.0;
  cfg.hi_speed = s_min * 1.1;
  cfg.demand.overrun_probability = 1.0;
  cfg.record_trace = true;
  cfg.faults.episodes.push_back({});
  cfg.faults.episodes.back().deny_boost = true;
  cfg.faults.recycle = true;

  const SimMetrics result = Simulator().run(set, cfg).value().metrics;
  ASSERT_GT(result.faults_injected, 0u);
  ASSERT_FALSE(result.misses.empty());

  // Without a license every miss is a violation ...
  const WatchdogReport unlicensed = check_trace(set, cfg, result, {});
  ASSERT_FALSE(unlicensed.ok());
  std::size_t miss_violations = 0;
  for (const Violation& v : unlicensed.violations) {
    EXPECT_EQ(v.kind, Violation::Kind::kUnlicensedMiss) << v.detail;
    ++miss_violations;
  }
  EXPECT_EQ(miss_violations, result.misses.size());

  // ... and with the degraded-guarantee license (achieved speed 1 < s_min)
  // the same trace certifies clean.
  WatchdogOptions licensed;
  licensed.license.hi_mode_misses = !hi_mode_schedulable(set, 1.0);
  ASSERT_TRUE(licensed.license.hi_mode_misses);
  EXPECT_TRUE(check_trace(set, cfg, result, licensed).ok());
}

TEST(WatchdogLicenseTest, PerTaskLicenseCoversOnlyThatTask) {
  const TaskSet set = overload_set();
  SimConfig cfg;
  cfg.horizon = 600.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  cfg.record_trace = true;
  cfg.faults.episodes.push_back({});
  cfg.faults.episodes.back().deny_boost = true;
  cfg.faults.recycle = true;

  const SimMetrics result = Simulator().run(set, cfg).value().metrics;
  ASSERT_FALSE(result.misses.empty());
  bool task0_missed = false, task1_missed = false;
  for (const DeadlineMiss& m : result.misses) {
    task0_missed |= m.task_index == 0;
    task1_missed |= m.task_index == 1;
  }
  if (!task0_missed || !task1_missed) GTEST_SKIP() << "need misses from both tasks";

  WatchdogOptions opts;
  opts.license.tasks = {0};
  const WatchdogReport report = check_trace(set, cfg, result, opts);
  ASSERT_FALSE(report.ok());
  for (const Violation& v : report.violations) EXPECT_EQ(v.task_index, 1);
}

// ---- hand-scripted traces: each invariant break must be caught -----------

SimConfig traced_config() {
  SimConfig cfg;
  cfg.record_trace = true;
  return cfg;
}

TEST(WatchdogScriptedTest, ResetWhileJobsPendingIsFlagged) {
  const TaskSet set = table1_base();
  SimMetrics result;
  result.trace.events = {
      {0.0, TraceEvent::Kind::kRelease, 0, 1},
      {1.0, TraceEvent::Kind::kModeSwitchHi, -1, 0},
      {2.0, TraceEvent::Kind::kReset, -1, 0},  // job 1 never completed
      {3.0, TraceEvent::Kind::kCompletion, 0, 1},
  };
  const WatchdogReport report = check_trace(set, traced_config(), result, {});
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kResetNotIdle);
  EXPECT_DOUBLE_EQ(report.violations[0].time, 2.0);
}

TEST(WatchdogScriptedTest, DwellBeyondDeltaRIsFlagged) {
  const TaskSet set = table1_base();
  SimMetrics result;
  result.trace.events = {
      {1.0, TraceEvent::Kind::kModeSwitchHi, -1, 0},
      {10.0, TraceEvent::Kind::kReset, -1, 0},  // dwell 9 > bound 5
  };
  WatchdogOptions opts;
  opts.delta_r_bound = 5.0;
  const WatchdogReport report = check_trace(set, traced_config(), result, opts);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kDwellExceeded);
  EXPECT_EQ(report.dwells_checked, 1u);
}

TEST(WatchdogScriptedTest, OffProtocolSpeedIsFlagged) {
  const TaskSet set = table1_base();
  SimMetrics result;
  result.trace.segments = {{0.0, 1.0, 0, 1, /*speed=*/3.7, Mode::LO}};
  const WatchdogReport report = check_trace(set, traced_config(), result, {});
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kSpeedOutOfProtocol);
}

TEST(WatchdogScriptedTest, StructurallyBrokenTracesAreFlagged) {
  const TaskSet set = table1_base();

  SimMetrics unordered;
  unordered.trace.events = {
      {5.0, TraceEvent::Kind::kRelease, 0, 1},
      {1.0, TraceEvent::Kind::kCompletion, 0, 1},  // time runs backwards
  };
  WatchdogReport report = check_trace(set, traced_config(), unordered, {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kMalformedTrace);

  SimMetrics orphan;
  orphan.trace.events = {{1.0, TraceEvent::Kind::kCompletion, 0, 1}};
  report = check_trace(set, traced_config(), orphan, {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kMalformedTrace);

  SimMetrics double_switch;
  double_switch.trace.events = {
      {1.0, TraceEvent::Kind::kModeSwitchHi, -1, 0},
      {2.0, TraceEvent::Kind::kModeSwitchHi, -1, 0},
  };
  report = check_trace(set, traced_config(), double_switch, {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kMalformedTrace);

  // Summary/trace miss-count disagreement.
  SimMetrics mismatch;
  mismatch.misses.push_back({0, 1, 4.0, Mode::LO});
  report = check_trace(set, traced_config(), mismatch, {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kMalformedTrace);
}

TEST(WatchdogScriptedTest, MissingTraceIsReportedNotAsserted) {
  const TaskSet set = table1_base();
  SimConfig cfg;  // record_trace = false
  const WatchdogReport report = check_trace(set, cfg, SimMetrics{}, {});
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kMalformedTrace);
}

TEST(WatchdogScriptedTest, InjectedEpisodeSpeedsAreAllowed) {
  const TaskSet set = table1_base();
  SimConfig cfg;
  cfg.horizon = 300.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  cfg.record_trace = true;
  cfg.faults.episodes.push_back({});
  cfg.faults.episodes.back().achieved_speed = 1.5;
  cfg.faults.recycle = true;

  const SimMetrics result = Simulator().run(set, cfg).value().metrics;
  ASSERT_GT(result.faults_injected, 0u);
  WatchdogOptions opts;
  opts.license.hi_mode_misses = !hi_mode_schedulable(set, 1.5);
  const WatchdogReport report = check_trace(set, cfg, result, opts);
  for (const Violation& v : report.violations)
    EXPECT_NE(v.kind, Violation::Kind::kSpeedOutOfProtocol) << v.detail;
}

}  // namespace
}  // namespace rbs::sim
