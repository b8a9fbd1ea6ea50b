// Shared differential-suite fixtures: generated task sets, the bit-identity
// comparator over SimMetrics, and the protocol feature-matrix of SimConfigs.
//
// Factored out of differential_test.cpp so the multicore suite
// (tests/multi/multicore_sim_test.cpp) can assert its own contract -- a
// single-core MulticoreSim is bit-identical to the uniprocessor kernel -- on
// exactly the same scenarios the kernel itself is certified on.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/tuning.hpp"
#include "gen/taskgen.hpp"
#include "sim/metrics.hpp"
#include "sim/config.hpp"

namespace rbs::sim::testkit {

inline TaskSet make_set(std::uint64_t seed, double u_bound) {
  Rng rng(seed);
  GenParams params;
  params.u_bound = u_bound;
  for (int attempt = 0; attempt < 100; ++attempt) {
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const MinXResult mx = min_x_for_lo(*skeleton);
    if (!mx.feasible) continue;
    return skeleton->materialize(mx.x, 2.0);
  }
  ADD_FAILURE() << "could not generate task set for seed " << seed;
  return TaskSet({McTask::lo("fallback", 1, 10, 10)});
}

/// Every field of both metrics compared with ==, no tolerances: the contract
/// between the kernels is bit-identity, not statistical similarity.
inline void expect_identical(const SimMetrics& a, const SimMetrics& b,
                             const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.jobs_released, b.jobs_released);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_abandoned, b.jobs_abandoned);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.mode_switches, b.mode_switches);
  EXPECT_EQ(a.budget_fallbacks, b.budget_fallbacks);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.throttle_downs, b.throttle_downs);
  EXPECT_EQ(a.undetected_overruns, b.undetected_overruns);
  EXPECT_EQ(a.jobs_lost_to_fault, b.jobs_lost_to_fault);
  EXPECT_EQ(a.ended_in_hi_mode, b.ended_in_hi_mode);
  EXPECT_EQ(a.busy_time, b.busy_time);  // bit-exact, not NEAR
  EXPECT_EQ(a.horizon, b.horizon);

  ASSERT_EQ(a.misses.size(), b.misses.size());
  for (std::size_t i = 0; i < a.misses.size(); ++i) {
    EXPECT_EQ(a.misses[i].task_index, b.misses[i].task_index) << "miss " << i;
    EXPECT_EQ(a.misses[i].job_id, b.misses[i].job_id) << "miss " << i;
    EXPECT_EQ(a.misses[i].deadline, b.misses[i].deadline) << "miss " << i;
    EXPECT_EQ(a.misses[i].mode, b.misses[i].mode) << "miss " << i;
  }

  ASSERT_EQ(a.task_stats.size(), b.task_stats.size());
  for (std::size_t i = 0; i < a.task_stats.size(); ++i) {
    EXPECT_EQ(a.task_stats[i].released, b.task_stats[i].released) << "task " << i;
    EXPECT_EQ(a.task_stats[i].completed, b.task_stats[i].completed) << "task " << i;
    EXPECT_EQ(a.task_stats[i].misses, b.task_stats[i].misses) << "task " << i;
    EXPECT_EQ(a.task_stats[i].max_response, b.task_stats[i].max_response) << "task " << i;
  }

  ASSERT_EQ(a.hi_dwell_times.size(), b.hi_dwell_times.size());
  for (std::size_t i = 0; i < a.hi_dwell_times.size(); ++i)
    EXPECT_EQ(a.hi_dwell_times[i], b.hi_dwell_times[i]) << "dwell " << i;

  ASSERT_EQ(a.trace.segments.size(), b.trace.segments.size());
  for (std::size_t i = 0; i < a.trace.segments.size(); ++i) {
    const TraceSegment& sa = a.trace.segments[i];
    const TraceSegment& sb = b.trace.segments[i];
    EXPECT_EQ(sa.start, sb.start) << "segment " << i;
    EXPECT_EQ(sa.end, sb.end) << "segment " << i;
    EXPECT_EQ(sa.task_index, sb.task_index) << "segment " << i;
    EXPECT_EQ(sa.job_id, sb.job_id) << "segment " << i;
    EXPECT_EQ(sa.speed, sb.speed) << "segment " << i;
    EXPECT_EQ(sa.mode, sb.mode) << "segment " << i;
  }
  ASSERT_EQ(a.trace.events.size(), b.trace.events.size());
  for (std::size_t i = 0; i < a.trace.events.size(); ++i) {
    const TraceEvent& ea = a.trace.events[i];
    const TraceEvent& eb = b.trace.events[i];
    EXPECT_EQ(ea.time, eb.time) << "event " << i;
    EXPECT_EQ(ea.kind, eb.kind) << "event " << i << " (" << to_string(ea.kind) << " vs "
                                << to_string(eb.kind) << ")";
    EXPECT_EQ(ea.task_index, eb.task_index) << "event " << i;
    EXPECT_EQ(ea.job_id, eb.job_id) << "event " << i;
  }
  ASSERT_EQ(a.trace.jobs.size(), b.trace.jobs.size());
  for (std::size_t i = 0; i < a.trace.jobs.size(); ++i) {
    EXPECT_EQ(a.trace.jobs[i].task_index, b.trace.jobs[i].task_index) << "job " << i;
    EXPECT_EQ(a.trace.jobs[i].job_id, b.trace.jobs[i].job_id) << "job " << i;
    EXPECT_EQ(a.trace.jobs[i].release, b.trace.jobs[i].release) << "job " << i;
    EXPECT_EQ(a.trace.jobs[i].demand, b.trace.jobs[i].demand) << "job " << i;
  }
}

/// The feature matrix: each entry turns on one protocol dimension (or an
/// adversarial combination) on top of a common overloadable base.
inline std::vector<std::pair<std::string, SimConfig>> config_corpus() {
  std::vector<std::pair<std::string, SimConfig>> corpus;
  SimConfig base;
  base.horizon = 20000.0;
  base.hi_speed = 2.0;
  base.demand.overrun_probability = 0.3;
  base.record_trace = true;

  corpus.emplace_back("periodic-overruns", base);

  {
    SimConfig cfg = base;
    cfg.release_jitter = 0.2;
    cfg.initial_offset_spread = 0.5;
    corpus.emplace_back("jitter+offsets", cfg);
  }
  {
    SimConfig cfg = base;
    cfg.min_overrun_separation = 500.0;
    cfg.demand.overrun_shape = DemandModel::OverrunShape::kUniform;
    corpus.emplace_back("separation+uniform-overruns", cfg);
  }
  {
    SimConfig cfg = base;
    cfg.demand.base_fraction_min = 0.4;
    cfg.demand.base_fraction_max = 1.2;  // eligible-without-overrun draws
    corpus.emplace_back("variable-demand", cfg);
  }
  {
    SimConfig cfg = base;
    cfg.speed_change_latency = 3.0;
    corpus.emplace_back("dvfs-latency", cfg);
  }
  {
    SimConfig cfg = base;
    cfg.max_boost_duration = 40.0;  // force turbo-budget fallbacks
    corpus.emplace_back("turbo-budget", cfg);
  }
  {
    SimConfig cfg = base;
    cfg.faults.detection_period = 50.0;  // coarse polled budget monitor
    // Uniform overruns give demands just past C(LO): some jobs finish
    // before the next poll, exercising the undetected-overrun path.
    cfg.demand.overrun_shape = DemandModel::OverrunShape::kUniform;
    corpus.emplace_back("polled-detection", cfg);
  }
  {
    SimConfig cfg = base;
    // One episode of each fault class, then a clean one, recycled.
    cfg.faults.episodes = {
        {.deny_boost = true},
        {.achieved_speed = 1.3},  // partial boost
        {.extra_latency = 7.5},   // late boost
        {.throttle_after = 12.0, .throttle_speed = 1.0},
        {.achieved_speed = 1.8},
        {},
    };
    cfg.faults.recycle = true;
    cfg.speed_change_latency = 1.0;
    corpus.emplace_back("scripted-faults", cfg);
  }
  {
    SimConfig cfg = base;
    cfg.hi_speed = 0.8;  // slowdown systems (paper's Example 1, s_min < 1)
    corpus.emplace_back("hi-slower-than-lo", cfg);
  }
  {
    SimConfig cfg = base;
    cfg.horizon = 5000.0;
    cfg.demand.overrun_probability = 0.9;  // overload: frequent switches, misses
    cfg.release_jitter = 0.05;
    cfg.max_boost_duration = 25.0;
    cfg.faults.detection_period = 4.0;
    // Denied, clean, then a late boost that throttles to a partial speed.
    cfg.faults.episodes = {
        {.deny_boost = true},
        {},
        {.extra_latency = 2.0, .throttle_after = 8.0, .throttle_speed = 1.5},
    };
    cfg.faults.recycle = true;
    corpus.emplace_back("adversarial-combination", cfg);
  }
  return corpus;
}

}  // namespace rbs::sim::testkit
