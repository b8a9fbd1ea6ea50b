// Differential suite: the event-driven kernel (sim/simulate.hpp) against the
// retired stepping engine (reference_kernel.hpp in this directory, the
// oracle; it is compiled into the test binary only).
//
// The rewrite's contract is not "statistically similar" but *bit-identical*:
// both kernels must visit the same instants, consume the RNG streams in the
// same order and accumulate the same floating-point sums, so every field of
// SimMetrics -- and the full recorded trace -- compares equal with ==, no
// tolerances. A seeded corpus of generated task sets crossed with every
// protocol feature (jitter, offsets, faults, polled detection, DVFS latency,
// turbo budget, scripted arrivals, degraded service, LO overload) keeps both
// code paths honest; a campaign-invariance test pins the worker-count
// determinism contract on top of the new facade.
//
// The corpus itself (set generator, bit-identity comparator, feature matrix)
// lives in sim_corpus.hpp so the multicore suite can reuse it verbatim.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/supervisor.hpp"
#include "core/tuning.hpp"
#include "sim/reference_kernel.hpp"
#include "sim/sim_corpus.hpp"
#include "sim/simulate.hpp"

namespace rbs::sim {
namespace {

using testkit::config_corpus;
using testkit::expect_identical;
using testkit::make_set;

SimMetrics run_both_and_compare(const TaskSet& set, const SimConfig& config,
                                const std::string& label) {
  const Expected<SimMetrics> oracle = reference_simulate(set, config);
  EXPECT_TRUE(oracle.is_ok()) << label << ": oracle rejected config: "
                              << oracle.error_message();
  if (!oracle.is_ok()) return SimMetrics{};
  Simulator simulator;
  const Expected<SimReport> report = simulator.run(set, config);
  EXPECT_TRUE(report.is_ok()) << label << ": facade rejected config: "
                              << report.error_message();
  if (!report.is_ok()) return SimMetrics{};
  EXPECT_TRUE(report.value().completed) << label;
  EXPECT_EQ(report.value().termination, SimTermination::kHorizon) << label;
  expect_identical(report.value().metrics, oracle.value(), label);
  return oracle.value();
}

TEST(DifferentialTest, EventKernelMatchesOracleAcrossCorpus) {
  const auto corpus = config_corpus();
  // Coverage tallies: the corpus is only meaningful if it actually drives
  // every protocol dimension it claims to cross.
  std::uint64_t switches = 0, fallbacks = 0, faults = 0, misses = 0, throttles = 0,
                abandoned = 0, undetected = 0;
  for (std::uint64_t set_seed : {17u, 23u, 41u}) {
    const TaskSet set = make_set(set_seed, 0.6);
    for (const auto& [name, proto] : corpus) {
      for (std::uint64_t sim_seed = 1; sim_seed <= 3; ++sim_seed) {
        SimConfig cfg = proto;
        cfg.seed = set_seed * 100 + sim_seed;
        const SimMetrics metrics =
            run_both_and_compare(set, cfg,
                                 name + " set=" + std::to_string(set_seed) +
                                     " seed=" + std::to_string(cfg.seed));
        switches += metrics.mode_switches;
        fallbacks += metrics.budget_fallbacks;
        faults += metrics.faults_injected;
        misses += metrics.misses.size();
        throttles += metrics.throttle_downs;
        abandoned += metrics.jobs_abandoned;
        undetected += metrics.undetected_overruns;
      }
    }
  }
  EXPECT_GT(switches, 0u) << "corpus never switched to HI mode";
  EXPECT_GT(fallbacks, 0u) << "corpus never hit the turbo budget";
  EXPECT_GT(faults, 0u) << "corpus never injected a fault";
  EXPECT_GT(misses, 0u) << "corpus never missed a deadline";
  EXPECT_GT(throttles, 0u) << "corpus never throttled";
  EXPECT_GT(abandoned, 0u) << "corpus never abandoned a carry-over job";
  EXPECT_GT(undetected, 0u) << "corpus never slipped an overrun past the poll";
}

TEST(DifferentialTest, ScriptedArrivalsMatchOracle) {
  const TaskSet set({McTask::hi("h", 2, 6, 8, 20, 20), McTask::lo("l", 3, 15, 15)});
  SimConfig cfg;
  cfg.horizon = 100.0;
  cfg.hi_speed = 2.0;
  cfg.record_trace = true;
  // Same-time entries, an overrunning demand, a near-zero demand and a
  // release beyond the horizon -- every scripted edge in one run.
  cfg.scripted_arrivals = {
      {{0.0, 2.0}, {20.0, 7.0}, {20.0, 1.0}, {60.0, 1e-12}, {150.0, 2.0}},
      {{0.0, 3.0}, {30.0, 3.0}, {30.0, 2.0}, {45.0, 1.0}},
  };
  run_both_and_compare(set, cfg, "scripted");
}

TEST(DifferentialTest, ScriptedSameInstantBurstMatchesOracle) {
  const TaskSet set({McTask::hi("h", 1, 4, 6, 12, 12), McTask::lo("a", 1, 8, 8),
                     McTask::lo("b", 1, 10, 10)});
  SimConfig cfg;
  cfg.horizon = 60.0;
  cfg.hi_speed = 1.5;
  cfg.record_trace = true;
  cfg.scripted_arrivals = {
      {{0.0, 5.0}, {0.0, 1.0}, {24.0, 1.0}},  // back-to-back same-time entries
      {{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}},
      {{12.0, 1.0}, {12.0, 1.0}},
  };
  run_both_and_compare(set, cfg, "same-instant burst");
}

TEST(DifferentialTest, DegradedLoServiceAndTerminationMatchOracle) {
  // Explicit degraded-service set: LO task with a stretched HI-mode period,
  // plus a terminated LO task (infinite HI period -> dropped in HI mode).
  const TaskSet set({McTask::hi("h", 2, 8, 10, 30, 30),
                     McTask::lo("keep", 3, 20, 20, 40, 40),
                     McTask::lo_terminated("drop", 2, 25, 25)});
  for (bool discard : {false, true}) {
    SimConfig cfg;
    cfg.horizon = 5000.0;
    cfg.hi_speed = 2.0;
    cfg.demand.overrun_probability = 0.4;
    cfg.discard_dropped_carryover = discard;
    cfg.record_trace = true;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      cfg.seed = seed;
      run_both_and_compare(set, cfg,
                           std::string("degraded discard=") + (discard ? "1" : "0") +
                               " seed=" + std::to_string(seed));
    }
  }
}

TEST(DifferentialTest, ReportsHonestPrefixUnderEventBudget) {
  const TaskSet set = make_set(17, 0.6);
  SimConfig cfg;
  cfg.horizon = 20000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 0.3;
  SimLimits limits;
  limits.max_events = 100;
  Simulator simulator;
  const Expected<SimReport> report = simulator.run(set, cfg, limits);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report.value().completed);
  EXPECT_FALSE(report.value().exact());
  EXPECT_EQ(report.value().termination, SimTermination::kEventBudget);
  EXPECT_EQ(report.value().counters.events_processed, 100u);
  // The prefix horizon is honest: less than requested, covered exactly.
  EXPECT_LT(report.value().metrics.horizon, cfg.horizon);
  EXPECT_GT(report.value().metrics.horizon, 0.0);
}

TEST(DifferentialTest, ReportsHonestPrefixUnderJobBudget) {
  const TaskSet set = make_set(17, 0.6);
  SimConfig cfg;
  cfg.horizon = 20000.0;
  SimLimits limits;
  limits.max_jobs = 50;
  Simulator simulator;
  const Expected<SimReport> report = simulator.run(set, cfg, limits);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report.value().completed);
  EXPECT_EQ(report.value().termination, SimTermination::kJobBudget);
  EXPECT_GE(report.value().metrics.jobs_released, 50u);
  EXPECT_LT(report.value().metrics.horizon, cfg.horizon);
}

TEST(DifferentialTest, ReusedSimulatorMatchesFreshSimulator) {
  // The kernel reuses its calendar/pool/scratch across runs; reuse must not
  // leak state between runs.
  const TaskSet set_a = make_set(17, 0.6);
  const TaskSet set_b = make_set(23, 0.7);
  SimConfig cfg;
  cfg.horizon = 10000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 0.4;
  cfg.release_jitter = 0.1;
  cfg.record_trace = true;

  Simulator reused;
  // Dirty the kernel with unrelated runs first.
  cfg.seed = 99;
  (void)reused.run(set_b, cfg).value();
  cfg.seed = 7;
  (void)reused.run(set_a, cfg).value();

  cfg.seed = 42;
  const SimReport warm = reused.run(set_a, cfg).value();
  Simulator fresh;
  const SimReport cold = fresh.run(set_a, cfg).value();
  expect_identical(warm.metrics, cold.metrics, "warm vs cold kernel");
}

TEST(DifferentialTest, CampaignInvariantAcrossWorkerCounts) {
  // jobs=1 vs jobs=8 must produce byte-identical per-item rows (the campaign
  // determinism contract, now running over the event-driven facade).
  const TaskSet set = make_set(17, 0.6);
  const auto run_rows = [&set](unsigned jobs) {
    campaign::SupervisorOptions options;
    options.campaign.jobs = jobs;
    options.campaign.seed = 5;
    const campaign::Supervisor supervisor(options);
    return supervisor.run(24, [&set](std::size_t index, Rng& rng,
                                     const campaign::CancelToken&) {
      thread_local Simulator simulator;  // reused per worker, exercising warm runs
      SimConfig cfg;
      cfg.horizon = 5000.0;
      cfg.hi_speed = 2.0;
      cfg.demand.overrun_probability = 0.3;
      cfg.release_jitter = 0.1;
      cfg.seed = static_cast<std::uint64_t>(rng.uniform_int(1, std::int64_t{1} << 40));
      const SimReport r = simulator.run(set, cfg).value();
      char buffer[160];
      std::snprintf(buffer, sizeof buffer, "%zu,%llu,%llu,%llu,%llu,%.17g", index,
                    static_cast<unsigned long long>(r.metrics.jobs_released),
                    static_cast<unsigned long long>(r.metrics.jobs_completed),
                    static_cast<unsigned long long>(r.metrics.mode_switches),
                    static_cast<unsigned long long>(r.metrics.preemptions),
                    r.metrics.busy_time);
      return std::string(buffer);
    });
  };
  const campaign::CampaignReport serial = run_rows(1);
  const campaign::CampaignReport parallel = run_rows(8);
  ASSERT_TRUE(serial.all_completed());
  ASSERT_TRUE(parallel.all_completed());
  for (std::size_t i = 0; i < serial.items.size(); ++i)
    EXPECT_EQ(serial.items[i].payload, parallel.items[i].payload) << "item " << i;
}

}  // namespace
}  // namespace rbs::sim
