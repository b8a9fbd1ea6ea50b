// Tests for the DVFS transition latency (AnalysisRequest::latency) through
// the analysis facade, and for its simulator counterpart
// (sim::SimConfig::speed_change_latency). analysis_test.cpp checks the same
// facade against the exact oracle; here are the hand-computed values and the
// simulator cross-checks.
#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.hpp"
#include "core/exact_oracle.hpp"
#include "core/speedup.hpp"
#include "gen/paper_examples.hpp"
#include "sim/simulate.hpp"
#include "support/tolerance.hpp"

namespace rbs {
namespace {

/// Theorem 2 alone under transition latency `latency`.
AnalysisReport speedup_at(const TaskSet& set, Ticks latency) {
  AnalysisRequest request{set, 1.0, {.speedup = true, .reset = false, .lo = false}, {}};
  request.latency = latency;
  return analyze(request).value();
}

/// Corollary 5 alone at speed `s` (>= 1) under transition latency `latency`.
double delta_r_at(const TaskSet& set, double s, Ticks latency) {
  AnalysisRequest request{set, s, {.speedup = false, .reset = true, .lo = false}, {}};
  request.latency = latency;
  return analyze(request).value().delta_r;
}

TEST(LatencySpeedupTest, ZeroLatencyMatchesTheorem2WhenBoostNeeded) {
  const AnalysisReport r = speedup_at(table1_base(), 0);
  EXPECT_NEAR(r.s_min, 4.0 / 3.0, 1e-12);
  EXPECT_EQ(r.s_min_argmax, 3);
}

TEST(LatencySpeedupTest, ZeroLatencyFlooredAtOne) {
  // The degraded variant could slow down: the facade reports Theorem 2's
  // s_min = 12/13 at L = 0 and leaves the floor at nominal speed to the
  // callers that certify a boost (bench_turbo, certify).
  const AnalysisReport r = speedup_at(table1_degraded(), 0);
  EXPECT_NEAR(r.s_min, 12.0 / 13.0, 1e-12);
}

TEST(LatencySpeedupTest, MonotoneInLatency) {
  const TaskSet set = table1_base();
  double prev = 0.0;
  for (Ticks latency : {0, 1, 2}) {
    const double s = speedup_at(set, latency).s_min;
    EXPECT_GE(s + 1e-12, prev) << "latency=" << latency;
    EXPECT_TRUE(std::isfinite(s));
    prev = s;
  }
}

TEST(LatencySpeedupTest, HandComputedValue) {
  // Table I, latency 1: the binding interval is still Delta = 3 with demand
  // 4: 4 <= 3 + (3-1)(s-1) => s >= 3/2. Check interval 6 (demand 7):
  // 7 <= 6 + 5(s-1) => s >= 6/5 -- smaller. So s_min = 1.5.
  const AnalysisReport r = speedup_at(table1_base(), 1);
  EXPECT_NEAR(r.s_min, 1.5, 1e-12);
  EXPECT_EQ(r.s_min_argmax, 3);
}

TEST(LatencySpeedupTest, InfiniteWhenWindowOverflows) {
  // Demand of 4 work units due at Delta = 3 cannot be served at nominal
  // speed once the latency covers the whole interval.
  const AnalysisReport r = speedup_at(table1_base(), 3);
  EXPECT_TRUE(std::isinf(r.s_min));
  EXPECT_EQ(r.s_min_argmax, 3);
}

TEST(LatencySpeedupTest, EmptySetNeedsNothing) {
  EXPECT_DOUBLE_EQ(speedup_at(TaskSet{}, 5).s_min, 0.0);
}

TEST(LatencyResetTest, ZeroLatencyMatchesCorollary5) {
  for (double s : {4.0 / 3.0, 2.0, 3.0})
    EXPECT_NEAR(delta_r_at(table1_base(), s, 0), oracle::exact_delta_r(table1_base(), s), 1e-9)
        << "s=" << s;
}

TEST(LatencyResetTest, HandComputedValue) {
  // Table I at s = 2, latency 2: supply(D) = D + (D-2). The zero-latency
  // reset was 6 where ADB(6) = 12 = 2*6; now supply(6) = 10 < 12, and on
  // [6, 7) the demand is constant 12: 12 = D + (D-2) => D = 7.
  EXPECT_NEAR(delta_r_at(table1_base(), 2.0, 2), 7.0, 1e-9);
}

TEST(LatencyResetTest, MonotoneInLatency) {
  double prev = 0.0;
  for (Ticks latency : {0, 1, 2, 4}) {
    const double dr = delta_r_at(table1_base(), 2.0, latency);
    EXPECT_GE(dr + 1e-9, prev);
    prev = dr;
  }
}

TEST(LatencyResetTest, InfiniteAtOrBelowUtilization) {
  // U_HI > 1 (1.0 + 0.8): even permanent unit speed never drains the
  // backlog, and a boost at exactly U_HI doesn't either.
  const TaskSet heavy({McTask::hi("a", 1, 4, 2, 4, 4), McTask::hi("b", 1, 4, 3, 5, 5)});
  const double u = heavy.total_utilization(Mode::HI);
  ASSERT_GT(u, 1.0);
  EXPECT_TRUE(std::isinf(delta_r_at(heavy, 1.0, 2)));
  EXPECT_TRUE(std::isinf(delta_r_at(heavy, u, 2)));
  EXPECT_TRUE(std::isfinite(delta_r_at(heavy, u + 0.2, 2)));
}

TEST(LatencyResetTest, AllDroppedCrossesSupplyKink) {
  // Carry-over work 5, s = 2, latency 3: 5 > 3, so D*2 - 3 = 5 => D = 4.
  const TaskSet set({McTask::lo_terminated("a", 2, 10, 10),
                     McTask::lo_terminated("b", 3, 20, 20)});
  EXPECT_NEAR(delta_r_at(set, 2.0, 3), 4.0, 1e-9);
  // Latency beyond the work: crossing before the kink, at Delta = 5.
  EXPECT_NEAR(delta_r_at(set, 2.0, 8), 5.0, 1e-9);
}

TEST(LatencySimTest, BoostDelayedByLatency) {
  const TaskSet set({McTask::hi("h", 3, 5, 4, 7, 7)});
  sim::SimConfig cfg;
  cfg.horizon = 7.0;
  cfg.hi_speed = 2.0;
  cfg.speed_change_latency = 1.0;
  cfg.demand.overrun_probability = 1.0;
  cfg.record_trace = true;
  const sim::SimMetrics r = sim::Simulator().run(set, cfg).value().metrics;
  // Switch at 3; nominal speed on [3, 4] (1 work), boosted from 4:
  // remaining 1 work at speed 2 -> completion at 4.5 (vs 4 with no latency).
  ASSERT_EQ(r.jobs_completed, 1u);
  EXPECT_NEAR(r.task_stats[0].max_response, 4.5, 1e-6);
  bool saw_slow_hi_segment = false;
  for (const sim::TraceSegment& seg : r.trace.segments)
    if (seg.mode == Mode::HI && approx_eq(seg.speed, 1.0, kSpeedTol)) saw_slow_hi_segment = true;
  EXPECT_TRUE(saw_slow_hi_segment);
}

TEST(LatencySimTest, BoundsHoldInSimulationWithLatency) {
  const TaskSet set = table1_base();
  const Ticks latency = 1;
  const double s = speedup_at(set, latency).s_min;  // 1.5
  const double dr = delta_r_at(set, s, latency);
  ASSERT_TRUE(std::isfinite(dr));

  sim::SimConfig cfg;
  cfg.horizon = 30000.0;
  cfg.hi_speed = s;
  cfg.speed_change_latency = static_cast<double>(latency);
  cfg.demand.overrun_probability = 0.7;
  cfg.release_jitter = 0.2;
  const sim::SimMetrics r = sim::Simulator().run(set, cfg).value().metrics;
  EXPECT_FALSE(r.deadline_missed());
  EXPECT_GT(r.mode_switches, 0u);
  for (double dwell : r.hi_dwell_times) EXPECT_LE(dwell, dr + 1e-6);
}

TEST(LatencySimTest, LatencyAwareBoundAboveZeroLatencyBound) {
  // Ignoring the transition latency under-provisions: the latency-aware
  // certificate strictly exceeds Theorem 2's on any set whose binding
  // interval is short (Table I: 1.5 vs 4/3).
  const TaskSet set = table1_base();
  EXPECT_GT(speedup_at(set, 1).s_min, min_speedup_value(set) + 0.1);
}

}  // namespace
}  // namespace rbs
