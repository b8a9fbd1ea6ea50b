// Unit tests for the discrete-event simulator's mechanics.
#include "sim/simulate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/paper_examples.hpp"

namespace rbs::sim {
namespace {

SimConfig quiet(double horizon) {
  SimConfig cfg;
  cfg.horizon = horizon;
  return cfg;
}

TEST(SimBasicsTest, SingleTaskPeriodicRunsToCompletion) {
  const TaskSet set({McTask::lo("l", 2, 10, 10)});
  const SimMetrics r = Simulator().run(set, quiet(100.0)).value().metrics;
  EXPECT_EQ(r.jobs_released, 10u);   // releases at 0,10,...,90
  EXPECT_EQ(r.jobs_completed, 10u);
  EXPECT_FALSE(r.deadline_missed());
  EXPECT_EQ(r.mode_switches, 0u);
  EXPECT_NEAR(r.busy_time, 20.0, 1e-6);
}

TEST(SimBasicsTest, SpeedScalesExecutionTime) {
  const TaskSet set({McTask::lo("l", 4, 10, 10)});
  SimConfig cfg = quiet(10.0);
  cfg.lo_speed = 2.0;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  ASSERT_FALSE(r.trace.segments.empty());
  // Demand 4 at speed 2 finishes after 2 time units.
  const TraceSegment& seg = r.trace.segments.front();
  EXPECT_EQ(seg.task_index, 0);
  EXPECT_NEAR(seg.end - seg.start, 2.0, 1e-6);
}

TEST(SimBasicsTest, EdfPicksEarliestDeadline) {
  // Task b has the shorter deadline and must run first despite its later
  // index... both released at t=0.
  const TaskSet set({McTask::lo("a", 3, 20, 20), McTask::lo("b", 2, 5, 20)});
  SimConfig cfg = quiet(20.0);
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  ASSERT_GE(r.trace.segments.size(), 2u);
  EXPECT_EQ(r.trace.segments[0].task_index, 1);  // "b"
  EXPECT_EQ(r.trace.segments[1].task_index, 0);  // then "a"
  EXPECT_FALSE(r.deadline_missed());
}

TEST(SimBasicsTest, PreemptionOnUrgentRelease) {
  // Long job (deadline 50) preempted by a short-deadline task released at 5.
  const TaskSet set({McTask::lo("long", 20, 50, 100),
                     McTask::lo("short", 2, 4, 100)});
  SimConfig cfg = quiet(100.0);
  cfg.initial_offset_spread = 0.0;
  // Shift "short"'s first release by giving it an offset: emulate by jitter
  // is awkward; instead release both at 0 -- short runs first, no preemption.
  const SimMetrics r0 = Simulator().run(set, cfg).value().metrics;
  EXPECT_EQ(r0.preemptions, 0u);
  // With "short" having period 7 and deadline 4 it preempts "long" repeatedly.
  const TaskSet busy({McTask::lo("long", 20, 50, 100), McTask::lo("short", 2, 4, 7)});
  const SimMetrics r1 = Simulator().run(busy, quiet(100.0)).value().metrics;
  EXPECT_GT(r1.preemptions, 0u);
  EXPECT_FALSE(r1.deadline_missed());
}

TEST(SimBasicsTest, DeterministicForSameSeed) {
  SimConfig cfg = quiet(5000.0);
  cfg.demand.overrun_probability = 0.3;
  cfg.demand.base_fraction_min = 0.5;
  cfg.release_jitter = 0.2;
  cfg.hi_speed = 2.0;
  cfg.seed = 99;
  const TaskSet set = table1_base();
  const SimMetrics a = Simulator().run(set, cfg).value().metrics;
  const SimMetrics b = Simulator().run(set, cfg).value().metrics;
  EXPECT_EQ(a.jobs_released, b.jobs_released);
  EXPECT_EQ(a.mode_switches, b.mode_switches);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_DOUBLE_EQ(a.busy_time, b.busy_time);
  cfg.seed = 100;
  const SimMetrics c = Simulator().run(set, cfg).value().metrics;
  EXPECT_NE(a.jobs_released + a.preemptions * 1000, c.jobs_released + c.preemptions * 1000);
}

TEST(SimOverrunTest, NoOverrunMeansNoModeSwitch) {
  SimConfig cfg = quiet(10000.0);
  cfg.demand.overrun_probability = 0.0;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  EXPECT_EQ(r.mode_switches, 0u);
  EXPECT_FALSE(r.deadline_missed());
}

TEST(SimOverrunTest, BudgetTriggerFiresAtCLo) {
  // tau1 alone, always overrunning: the switch happens exactly when C(LO)=3
  // work units are done.
  const TaskSet set({McTask::hi("h", 3, 5, 4, 7, 7)});
  SimConfig cfg = quiet(7.0);
  cfg.demand.overrun_probability = 1.0;
  cfg.hi_speed = 2.0;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  ASSERT_EQ(r.mode_switches, 1u);
  double switch_time = -1.0;
  for (const TraceEvent& e : r.trace.events)
    if (e.kind == TraceEvent::Kind::kModeSwitchHi) switch_time = e.time;
  EXPECT_NEAR(switch_time, 3.0, 1e-6);
  EXPECT_FALSE(r.deadline_missed());
  // Residual 2 work units at speed 2: completion at 4, reset at 4.
  ASSERT_EQ(r.hi_dwell_times.size(), 1u);
  EXPECT_NEAR(r.hi_dwell_times[0], 1.0, 1e-6);
}

TEST(SimOverrunTest, UniformOverrunShapeStaysAboveBudget) {
  const TaskSet set({McTask::hi("h", 3, 9, 4, 10, 10)});
  SimConfig cfg = quiet(20000.0);
  cfg.demand.overrun_probability = 0.5;
  cfg.demand.overrun_shape = DemandModel::OverrunShape::kUniform;
  cfg.hi_speed = 3.0;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_GT(r.mode_switches, 0u);
  EXPECT_FALSE(r.deadline_missed());
}

TEST(SimModeTest, TerminatedLoTaskStopsReleasingInHiMode) {
  // One always-overrunning HI task with a long HI-mode episode plus a
  // terminated LO task: while in HI mode the LO task must not release.
  const TaskSet set({McTask::hi("h", 2, 8, 4, 10, 10),
                     McTask::lo_terminated("l", 1, 5, 5)});
  SimConfig cfg = quiet(10000.0);
  cfg.demand.overrun_probability = 1.0;
  cfg.hi_speed = 1.2;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_GT(r.mode_switches, 0u);
  EXPECT_FALSE(r.deadline_missed());
  // Reconstruct mode intervals from events and check LO releases avoid them.
  double hi_since = -1.0;
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind == TraceEvent::Kind::kModeSwitchHi) hi_since = e.time;
    if (e.kind == TraceEvent::Kind::kReset) hi_since = -1.0;
    if (e.kind == TraceEvent::Kind::kRelease && e.task_index == 1)
      EXPECT_LT(hi_since, 0.0) << "LO release at " << e.time << " during HI mode";
  }
}

TEST(SimModeTest, CarryOverOfDroppedTaskCompletesByDefault) {
  const TaskSet set({McTask::hi("h", 2, 8, 4, 10, 10),
                     McTask::lo_terminated("l", 6, 20, 20)});
  SimConfig cfg = quiet(40.0);
  cfg.demand.overrun_probability = 1.0;
  cfg.hi_speed = 2.0;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_EQ(r.jobs_abandoned, 0u);
  EXPECT_EQ(r.jobs_completed, r.jobs_released);
}

TEST(SimModeTest, CarryOverOfDroppedTaskCanBeDiscarded) {
  const TaskSet set({McTask::hi("h", 2, 8, 4, 10, 10),
                     McTask::lo_terminated("l", 6, 20, 20)});
  SimConfig cfg = quiet(40.0);
  cfg.demand.overrun_probability = 1.0;
  cfg.hi_speed = 2.0;
  cfg.discard_dropped_carryover = true;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_GT(r.jobs_abandoned, 0u);
}

TEST(SimModeTest, DegradedLoTaskSpacingInHiMode) {
  // LO task degraded to T(HI)=40: releases inside one HI episode must be >=
  // 40 apart. Keep the system in HI mode for a while via a heavy HI task.
  const TaskSet set({McTask::hi("h", 2, 9, 3, 10, 10),
                     McTask::lo("l", 2, 20, 20, 40, 40)});
  SimConfig cfg = quiet(20000.0);
  cfg.demand.overrun_probability = 1.0;
  cfg.hi_speed = 1.5;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  double hi_since = -1.0;
  double last_lo_release_in_hi = -1.0;
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind == TraceEvent::Kind::kModeSwitchHi) {
      hi_since = e.time;
      last_lo_release_in_hi = -1.0;
    }
    if (e.kind == TraceEvent::Kind::kReset) hi_since = -1.0;
    if (e.kind == TraceEvent::Kind::kRelease && e.task_index == 1 && hi_since >= 0.0) {
      if (last_lo_release_in_hi >= 0.0)
        EXPECT_GE(e.time - last_lo_release_in_hi, 40.0 - 1e-6);
      last_lo_release_in_hi = e.time;
    }
  }
  EXPECT_FALSE(r.deadline_missed());
}

TEST(SimModeTest, ResetRestoresNominalSpeed) {
  const TaskSet set({McTask::hi("h", 3, 5, 4, 7, 7)});
  SimConfig cfg = quiet(14.0);
  cfg.demand.overrun_probability = 1.0;
  cfg.hi_speed = 2.5;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  ASSERT_GE(r.mode_switches, 1u);
  bool saw_lo_speed_after_reset = false;
  double reset_time = -1.0;
  for (const TraceEvent& e : r.trace.events)
    if (e.kind == TraceEvent::Kind::kReset && reset_time < 0) reset_time = e.time;
  ASSERT_GE(reset_time, 0.0);
  for (const TraceSegment& s : r.trace.segments)
    if (s.start >= reset_time && s.task_index >= 0) {
      EXPECT_DOUBLE_EQ(s.speed, 1.0);
      saw_lo_speed_after_reset = true;
      break;
    }
  EXPECT_TRUE(saw_lo_speed_after_reset);
}

TEST(SimMissTest, GuaranteedOverloadMisses) {
  // Two always-overrunning HI tasks: 8 work units due by t=4 at speed 1.
  const TaskSet set({McTask::hi("a", 2, 4, 2, 4, 4), McTask::hi("b", 2, 4, 2, 4, 4)});
  SimConfig cfg = quiet(50.0);
  cfg.demand.overrun_probability = 1.0;
  cfg.hi_speed = 1.0;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_TRUE(r.deadline_missed());
  // At speedup 2 (= U_HI(HI)) the same scenario... needs slightly more: the
  // exact s_min for this set; use a comfortably larger speed.
  cfg.hi_speed = 3.0;
  const SimMetrics ok = Simulator().run(set, cfg).value().metrics;
  EXPECT_FALSE(ok.deadline_missed());
}

TEST(SimMissTest, MissRecordsModeAndTask) {
  const TaskSet set({McTask::hi("a", 2, 4, 2, 4, 4), McTask::hi("b", 2, 4, 2, 4, 4)});
  SimConfig cfg = quiet(10.0);
  cfg.demand.overrun_probability = 1.0;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  ASSERT_TRUE(r.deadline_missed());
  EXPECT_EQ(r.misses.front().mode, Mode::HI);
}

TEST(SimMissTest, VirtualDeadlineMissDetectedInLoMode) {
  // LO-mode infeasible by construction: two tasks with D=2, C=2.
  const TaskSet set({McTask::lo("a", 2, 2, 50), McTask::lo("b", 2, 2, 50)});
  const SimMetrics r = Simulator().run(set, quiet(50.0)).value().metrics;
  ASSERT_TRUE(r.deadline_missed());
  EXPECT_EQ(r.misses.front().mode, Mode::LO);
}

TEST(SimSporadicTest, JitterStretchesInterArrivals) {
  const TaskSet set({McTask::lo("l", 1, 10, 10)});
  SimConfig cfg = quiet(10000.0);
  cfg.release_jitter = 0.5;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  double last = -1.0;
  bool saw_stretch = false;
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind != TraceEvent::Kind::kRelease) continue;
    if (last >= 0.0) {
      EXPECT_GE(e.time - last, 10.0 - 1e-6);  // sporadic minimum separation
      saw_stretch |= e.time - last > 10.5;
    }
    last = e.time;
  }
  EXPECT_TRUE(saw_stretch);
  EXPECT_LT(r.jobs_released, 1000u);
}

TEST(SimSporadicTest, InitialOffsetsSpreadFirstReleases) {
  const TaskSet set({McTask::lo("a", 1, 50, 50), McTask::lo("b", 1, 50, 50),
                     McTask::lo("c", 1, 50, 50)});
  SimConfig cfg = quiet(200.0);
  cfg.initial_offset_spread = 1.0;
  cfg.record_trace = true;
  cfg.seed = 3;
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  std::vector<double> firsts;
  std::vector<bool> seen(3, false);
  for (const TraceEvent& e : r.trace.events)
    if (e.kind == TraceEvent::Kind::kRelease && !seen[static_cast<std::size_t>(e.task_index)]) {
      seen[static_cast<std::size_t>(e.task_index)] = true;
      firsts.push_back(e.time);
    }
  ASSERT_EQ(firsts.size(), 3u);
  EXPECT_TRUE(firsts[0] != firsts[1] || firsts[1] != firsts[2]);
}

TEST(SimTraceTest, SegmentsAreContiguousAndOrdered) {
  SimConfig cfg = quiet(500.0);
  cfg.demand.overrun_probability = 0.5;
  cfg.hi_speed = 2.0;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  ASSERT_FALSE(r.trace.segments.empty());
  for (std::size_t i = 0; i < r.trace.segments.size(); ++i) {
    const TraceSegment& s = r.trace.segments[i];
    EXPECT_LT(s.start, s.end + 1e-9);
    if (i > 0) EXPECT_GE(s.start, r.trace.segments[i - 1].end - 1e-9);
  }
}

TEST(SimTraceTest, BusyTimeMatchesSegments) {
  SimConfig cfg = quiet(500.0);
  cfg.demand.overrun_probability = 0.5;
  cfg.hi_speed = 2.0;
  cfg.record_trace = true;
  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  double busy = 0.0;
  for (const TraceSegment& s : r.trace.segments)
    if (s.task_index >= 0) busy += s.end - s.start;
  EXPECT_NEAR(busy, r.busy_time, 1e-6);
}

TEST(SimTraceTest, EndedInHiModeCensorsLastDwell) {
  // An always-overrunning task with hi_speed barely above utilization keeps
  // the system in HI mode; cut the horizon mid-episode.
  const TaskSet set({McTask::hi("h", 2, 9, 3, 10, 10)});
  SimConfig cfg = quiet(25.0);
  cfg.demand.overrun_probability = 1.0;
  cfg.hi_speed = 0.85;  // below U(HI) = 0.9: backlog grows, never idle
  const SimMetrics r = Simulator().run(set, cfg).value().metrics;
  EXPECT_TRUE(r.ended_in_hi_mode);
  EXPECT_TRUE(r.hi_dwell_times.empty());
}

TEST(SimTraceTest, EventNamesAreHumanReadable) {
  EXPECT_EQ(to_string(TraceEvent::Kind::kModeSwitchHi), "switch->HI");
  EXPECT_EQ(to_string(TraceEvent::Kind::kDeadlineMiss), "MISS");
}

}  // namespace
}  // namespace rbs::sim
