// Tests for the fault-injection subsystem (sim/faults.hpp) and the
// SimConfig validation layer feeding it.
#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gen/paper_examples.hpp"
#include "sim/simulate.hpp"
#include "support/tolerance.hpp"

namespace rbs::sim {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(FaultPlanValidateTest, DefaultPlanIsValid) {
  EXPECT_TRUE(validate(FaultPlan{}, 2.0).is_ok());
}

TEST(FaultPlanValidateTest, RejectsBadFields) {
  {
    FaultPlan plan;
    plan.detection_period = -1.0;
    EXPECT_FALSE(validate(plan, 2.0));
  }
  {
    FaultPlan plan;
    plan.episodes.push_back({});
    plan.episodes.back().extra_latency = kNaN;
    EXPECT_FALSE(validate(plan, 2.0));
  }
  {
    FaultPlan plan;
    plan.episodes.push_back({});
    plan.episodes.back().achieved_speed = 2.5;  // above max(1, hi)
    EXPECT_FALSE(validate(plan, 2.0));
  }
}

TEST(FaultPlanValidateTest, SlowdownSystemsAllowPartialBelowLoSpeed) {
  // Example 1: hi_speed < 1 is legal; a partial boost then lands between
  // hi_speed and the nominal speed 1, i.e. *above* hi_speed.
  FaultPlan plan;
  plan.episodes.push_back({});
  plan.episodes.back().achieved_speed = 0.9;
  EXPECT_TRUE(validate(plan, 0.85).is_ok());
}

TEST(ResolveFaultTest, ScriptedEpisodesIndexAndRecycle) {
  FaultPlan plan;
  plan.episodes.resize(2);
  plan.episodes[0].deny_boost = true;
  plan.episodes[1].extra_latency = 2.0;

  EXPECT_TRUE(resolve_fault(plan, 0).deny_boost);
  EXPECT_DOUBLE_EQ(resolve_fault(plan, 1).extra_latency, 2.0);
  // Beyond the script: fault-free.
  EXPECT_FALSE(resolve_fault(plan, 2).any());

  plan.recycle = true;
  EXPECT_TRUE(resolve_fault(plan, 2).deny_boost);
  EXPECT_DOUBLE_EQ(resolve_fault(plan, 5).extra_latency, 2.0);
}

// ---- simulator integration ------------------------------------------------

SimConfig overrun_config(double horizon) {
  SimConfig cfg;
  cfg.horizon = horizon;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 1.0;
  cfg.record_trace = true;
  return cfg;
}

TEST(FaultInjectionTest, DeniedBoostNeverReachesHiSpeed) {
  SimConfig cfg = overrun_config(400.0);
  cfg.faults.episodes.push_back({});
  cfg.faults.episodes.back().deny_boost = true;
  cfg.faults.recycle = true;

  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  ASSERT_GT(r.mode_switches, 0u);
  EXPECT_EQ(r.faults_injected, r.mode_switches);
  for (const TraceSegment& s : r.trace.segments) EXPECT_DOUBLE_EQ(s.speed, 1.0);
  bool fault_event = false;
  for (const TraceEvent& e : r.trace.events)
    fault_event |= e.kind == TraceEvent::Kind::kFaultEngaged;
  EXPECT_TRUE(fault_event);
}

TEST(FaultInjectionTest, PartialBoostRunsAtAchievedSpeed) {
  SimConfig cfg = overrun_config(400.0);
  cfg.faults.episodes.push_back({});
  cfg.faults.episodes.back().achieved_speed = 1.5;
  cfg.faults.recycle = true;

  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  ASSERT_GT(r.mode_switches, 0u);
  bool at_partial = false;
  for (const TraceSegment& s : r.trace.segments) {
    EXPECT_NE(s.speed, 2.0);  // full boost never achieved
    at_partial |= s.mode == Mode::HI && approx_eq(s.speed, 1.5, kSpeedTol);
  }
  EXPECT_TRUE(at_partial);
}

TEST(FaultInjectionTest, LateBoostKeepsLoSpeedDuringExtraLatency) {
  SimConfig cfg = overrun_config(400.0);
  cfg.faults.episodes.push_back({});
  cfg.faults.episodes.back().extra_latency = 1.0;
  cfg.faults.recycle = true;

  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  ASSERT_GT(r.mode_switches, 0u);
  bool hi_mode_at_nominal_speed = false, boosted = false;
  for (const TraceSegment& s : r.trace.segments) {
    if (s.mode != Mode::HI) continue;
    hi_mode_at_nominal_speed |= approx_eq(s.speed, 1.0, kSpeedTol);
    boosted |= s.speed == cfg.hi_speed;
  }
  EXPECT_TRUE(hi_mode_at_nominal_speed);  // the latency window
  EXPECT_TRUE(boosted);              // the boost does engage eventually
}

TEST(FaultInjectionTest, ThrottleDownCollapsesSpeedMidEpisode) {
  SimConfig cfg = overrun_config(400.0);
  cfg.faults.episodes.push_back({});
  cfg.faults.episodes.back().throttle_after = 0.5;
  cfg.faults.episodes.back().throttle_speed = 1.25;
  cfg.faults.recycle = true;

  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  ASSERT_GT(r.mode_switches, 0u);
  EXPECT_GT(r.throttle_downs, 0u);
  bool throttled = false, throttle_event = false;
  for (const TraceSegment& s : r.trace.segments)
    throttled |= s.mode == Mode::HI && approx_eq(s.speed, 1.25, kSpeedTol);
  for (const TraceEvent& e : r.trace.events)
    throttle_event |= e.kind == TraceEvent::Kind::kThrottleDown;
  EXPECT_TRUE(throttled);
  EXPECT_TRUE(throttle_event);
}

TEST(FaultInjectionTest, DelayedDetectionSwitchesOnPollGrid) {
  SimConfig cfg = overrun_config(600.0);
  cfg.faults.detection_period = 2.0;

  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  ASSERT_GT(r.mode_switches, 0u);
  for (const TraceEvent& e : r.trace.events) {
    if (e.kind != TraceEvent::Kind::kModeSwitchHi) continue;
    const double phase = std::fmod(e.time, cfg.faults.detection_period);
    EXPECT_LT(std::min(phase, cfg.faults.detection_period - phase), 1e-6)
        << "switch at " << e.time << " off the poll grid";
  }
}

TEST(FaultInjectionTest, DelayedDetectionCanMissShortOverruns) {
  // With a huge polling period every overrun completes before a poll: no
  // mode switch ever happens and the overruns are counted as undetected.
  SimConfig cfg = overrun_config(600.0);
  cfg.faults.detection_period = 1000.0;

  const SimMetrics r = Simulator().run(table1_base(), cfg).value().metrics;
  EXPECT_EQ(r.mode_switches, 0u);
  EXPECT_GT(r.undetected_overruns, 0u);
  bool undetected_event = false;
  for (const TraceEvent& e : r.trace.events)
    undetected_event |= e.kind == TraceEvent::Kind::kUndetectedOverrun;
  EXPECT_TRUE(undetected_event);
}

TEST(FaultInjectionTest, FaultFreePlanMatchesBaseline) {
  SimConfig cfg = overrun_config(1000.0);
  const SimMetrics base = Simulator().run(table1_base(), cfg).value().metrics;
  cfg.faults.episodes.resize(3);  // scripted but empty: no faults
  const SimMetrics scripted = Simulator().run(table1_base(), cfg).value().metrics;
  EXPECT_EQ(base.mode_switches, scripted.mode_switches);
  EXPECT_EQ(base.misses.size(), scripted.misses.size());
  EXPECT_EQ(scripted.faults_injected, 0u);
  EXPECT_DOUBLE_EQ(base.busy_time, scripted.busy_time);
}

// ---- SimConfig validation (satellite: self-validating configs) -----------

TEST(SimConfigValidationTest, RejectsDegenerateConfigs) {
  const TaskSet set = table1_base();
  {
    SimConfig cfg;
    cfg.horizon = -1.0;
    EXPECT_FALSE(Simulator().run(set, cfg));
  }
  {
    SimConfig cfg;
    cfg.hi_speed = kNaN;
    EXPECT_FALSE(Simulator().run(set, cfg));
  }
  {
    SimConfig cfg;
    cfg.demand.overrun_probability = 1.5;
    EXPECT_FALSE(Simulator().run(set, cfg));
  }
  {
    SimConfig cfg;
    cfg.speed_change_latency = -2.0;
    EXPECT_FALSE(Simulator().run(set, cfg));
  }
  {
    SimConfig cfg;
    cfg.faults.detection_period = kNaN;
    EXPECT_FALSE(Simulator().run(set, cfg));
  }
}

TEST(SimConfigValidationTest, RejectsMalformedScripts) {
  const TaskSet set = table1_base();
  {
    SimConfig cfg;
    cfg.scripted_arrivals.resize(1);  // set has 2 tasks
    EXPECT_FALSE(Simulator().run(set, cfg));
  }
  {
    SimConfig cfg;
    cfg.scripted_arrivals.resize(2);
    cfg.scripted_arrivals[0] = {{5.0, 3.0}, {1.0, 3.0}};  // releases descend
    EXPECT_FALSE(Simulator().run(set, cfg));
  }
  {
    SimConfig cfg;
    cfg.scripted_arrivals.resize(2);
    cfg.scripted_arrivals[0] = {{0.0, -3.0}};  // negative demand
    EXPECT_FALSE(Simulator().run(set, cfg));
  }
}

// The name predates the removal of the throwing simulate() wrapper; what is
// left to check is that Simulator::run rejects the config with a message.
TEST(SimConfigValidationTest, ThrowingWrapperAndErrorMessage) {
  const TaskSet set = table1_base();
  SimConfig cfg;
  cfg.horizon = kNaN;
  const Expected<SimReport> result = Simulator().run(set, cfg);
  ASSERT_FALSE(result);
  EXPECT_FALSE(result.error_message().empty());
}

TEST(SimConfigValidationTest, SlowdownHiSpeedIsAccepted) {
  // Example 1's degraded system runs *slower* in HI mode; validation must
  // not reject hi_speed < 1.
  SimConfig cfg;
  cfg.horizon = 100.0;
  cfg.hi_speed = 0.95;
  cfg.demand.overrun_probability = 1.0;
  EXPECT_TRUE(Simulator().run(table1_degraded(), cfg).is_ok());
}

}  // namespace
}  // namespace rbs::sim
