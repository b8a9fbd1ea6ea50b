// Integration tests: the analytic bounds of Sections III-IV must hold on
// executed schedules, across random workloads and the FMS model.
//
//   * With HI-mode speedup s >= s_min (Theorem 2), no deadline may be missed
//     under any release pattern and any overrun pattern.
//   * Every observed HI-mode dwell (switch -> idle reset) must be at most the
//     analytic resetting time Delta_R(s) (Corollary 5).
#include <gtest/gtest.h>

#include <cmath>

#include "core/edf.hpp"
#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "core/tuning.hpp"
#include "gen/fms.hpp"
#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "sim/simulate.hpp"

namespace rbs {
namespace {

struct Scenario {
  std::uint64_t seed;
  double u_bound;
  double jitter;
  double overrun_probability;
};

std::string scenario_name(const testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  return "seed" + std::to_string(s.seed) + "_u" +
         std::to_string(static_cast<int>(s.u_bound * 100)) + "_j" +
         std::to_string(static_cast<int>(s.jitter * 100)) + "_p" +
         std::to_string(static_cast<int>(s.overrun_probability * 100));
}

class AnalysisSimTest : public testing::TestWithParam<Scenario> {};

TEST_P(AnalysisSimTest, BoundsHoldOnExecutedSchedules) {
  const Scenario& sc = GetParam();
  Rng rng(sc.seed);

  GenParams params;
  params.u_bound = sc.u_bound;
  params.period_min = 10;
  params.period_max = 400;  // keep horizons cheap
  const auto skeleton = generate_task_set(params, rng);
  if (!skeleton) GTEST_SKIP() << "generator missed the acceptance window";

  const MinXResult mx = min_x_for_lo(*skeleton);
  if (!mx.feasible) GTEST_SKIP() << "not LO-mode schedulable";
  const TaskSet set = skeleton->materialize(mx.x, 2.0);
  ASSERT_TRUE(lo_mode_schedulable(set));

  const double s_min = min_speedup_value(set);
  ASSERT_TRUE(std::isfinite(s_min));
  // Essentially s_min; nudged above the HI-mode utilization so Delta_R stays
  // finite and its breakpoint walk cheap (s_min can equal U_HI exactly).
  const double s = std::max({s_min + 1e-9, set.total_utilization(Mode::HI) + 0.02, 0.05});

  const double delta_r = resetting_time_value(set, s);
  ASSERT_TRUE(std::isfinite(delta_r));

  sim::SimConfig cfg;
  cfg.horizon = 30000.0;
  cfg.hi_speed = s;
  cfg.demand.overrun_probability = sc.overrun_probability;
  cfg.demand.overrun_shape = sim::DemandModel::OverrunShape::kFull;
  cfg.demand.base_fraction_min = 0.7;
  cfg.release_jitter = sc.jitter;
  cfg.initial_offset_spread = sc.jitter > 0 ? 1.0 : 0.0;
  cfg.seed = sc.seed * 7919 + 13;
  const sim::SimMetrics r = sim::Simulator().run(set, cfg).value().metrics;

  EXPECT_FALSE(r.deadline_missed())
      << "s_min=" << s_min << " misses=" << r.misses.size() << " first task "
      << (r.misses.empty() ? -1 : static_cast<int>(r.misses[0].task_index));
  for (double dwell : r.hi_dwell_times)
    EXPECT_LE(dwell, delta_r + 1e-6) << "dwell exceeds Delta_R=" << delta_r;
  if (sc.overrun_probability > 0.0) EXPECT_GT(r.mode_switches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, AnalysisSimTest,
    testing::Values(Scenario{1, 0.4, 0.0, 1.0}, Scenario{2, 0.4, 0.3, 0.5},
                    Scenario{3, 0.5, 0.0, 1.0}, Scenario{4, 0.5, 0.1, 0.3},
                    Scenario{5, 0.6, 0.0, 0.8}, Scenario{6, 0.6, 0.5, 0.5},
                    Scenario{7, 0.7, 0.0, 1.0}, Scenario{8, 0.7, 0.2, 0.7},
                    Scenario{9, 0.8, 0.0, 0.4}, Scenario{10, 0.8, 0.1, 1.0},
                    Scenario{11, 0.45, 0.05, 0.9}, Scenario{12, 0.55, 0.0, 0.6},
                    Scenario{13, 0.65, 0.4, 1.0}, Scenario{14, 0.75, 0.0, 0.2},
                    Scenario{15, 0.85, 0.05, 0.9}, Scenario{16, 0.35, 0.0, 1.0}),
    scenario_name);

class TerminationSimTest : public testing::TestWithParam<Scenario> {};

TEST_P(TerminationSimTest, BoundsHoldWithLoTaskTermination) {
  const Scenario& sc = GetParam();
  Rng rng(sc.seed + 1000);

  GenParams params;
  params.u_bound = sc.u_bound;
  params.period_min = 10;
  params.period_max = 400;
  const auto skeleton = generate_task_set(params, rng);
  if (!skeleton) GTEST_SKIP();
  const MinXResult mx = min_x_for_lo(*skeleton);
  if (!mx.feasible) GTEST_SKIP();
  const TaskSet set = skeleton->materialize_terminating(mx.x);

  const double s =
      std::max({min_speedup_value(set) + 1e-9, set.total_utilization(Mode::HI) + 0.02, 0.2});
  const double delta_r = resetting_time_value(set, s);
  ASSERT_TRUE(std::isfinite(delta_r));

  sim::SimConfig cfg;
  cfg.horizon = 30000.0;
  cfg.hi_speed = s;
  cfg.demand.overrun_probability = sc.overrun_probability;
  cfg.release_jitter = sc.jitter;
  cfg.seed = sc.seed * 31 + 7;
  const sim::SimMetrics r = sim::Simulator().run(set, cfg).value().metrics;

  EXPECT_FALSE(r.deadline_missed());
  for (double dwell : r.hi_dwell_times) EXPECT_LE(dwell, delta_r + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, TerminationSimTest,
                         testing::Values(Scenario{21, 0.5, 0.0, 1.0},
                                         Scenario{22, 0.6, 0.2, 0.6},
                                         Scenario{23, 0.7, 0.0, 1.0},
                                         Scenario{24, 0.8, 0.1, 0.8},
                                         Scenario{25, 0.9, 0.0, 1.0},
                                         Scenario{26, 0.4, 0.3, 0.5}),
                         scenario_name);

TEST(Table1SimTest, MinimumSpeedupIsTightInSimulation) {
  // At s = s_min = 4/3 the paper's example never misses...
  sim::SimConfig cfg;
  cfg.horizon = 50000.0;
  cfg.hi_speed = 4.0 / 3.0;
  cfg.demand.overrun_probability = 1.0;
  const sim::SimMetrics ok = sim::Simulator().run(table1_base(), cfg).value().metrics;
  EXPECT_FALSE(ok.deadline_missed());

  // ...and clearly below it a miss occurs (deterministically, already with
  // synchronous periodic arrivals: after the switch at t=3, 4 work units are
  // due by the deadlines at 5 and 7 and speed 0.85 cannot deliver them).
  // Note s_min is a *sufficient* bound: speeds between the true sporadic
  // worst case and 4/3 need adversarial patterns that periodic arrivals
  // do not produce.
  sim::SimConfig bad = cfg;
  bad.hi_speed = 0.85;
  EXPECT_TRUE(sim::Simulator().run(table1_base(), bad).value().metrics.deadline_missed());
}

TEST(Table1SimTest, DegradedVariantRunsAtReducedSpeed) {
  // s_min = 12/13 < 1: the degraded system tolerates a *slowdown* in HI mode.
  sim::SimConfig cfg;
  cfg.horizon = 50000.0;
  cfg.hi_speed = 12.0 / 13.0 + 1e-9;
  cfg.demand.overrun_probability = 1.0;
  const sim::SimMetrics r = sim::Simulator().run(table1_degraded(), cfg).value().metrics;
  EXPECT_FALSE(r.deadline_missed());
  EXPECT_GT(r.mode_switches, 0u);
}

TEST(FmsSimTest, EndToEndRecoveryWithinPaperEnvelope) {
  // Fig. 5b's headline: the FMS recovers in < 3 s with a 2x speedup.
  const ImplicitSet fms = fms_task_set(2.0);
  const MinXResult mx = min_x_for_lo(fms);
  ASSERT_TRUE(mx.feasible);
  const TaskSet set = fms.materialize(mx.x, 2.0);

  const double s_min = min_speedup_value(set);
  EXPECT_LT(s_min, 2.0);
  const double delta_r = resetting_time_value(set, 2.0);
  ASSERT_TRUE(std::isfinite(delta_r));
  EXPECT_LT(delta_r, 3000.0);  // 3 s at 1 tick = 1 ms

  sim::SimConfig cfg;
  cfg.horizon = 120000.0;  // 2 minutes
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 0.2;
  cfg.release_jitter = 0.1;
  const sim::SimMetrics r = sim::Simulator().run(set, cfg).value().metrics;
  EXPECT_FALSE(r.deadline_missed());
  EXPECT_GT(r.mode_switches, 0u);
  for (double dwell : r.hi_dwell_times) EXPECT_LE(dwell, delta_r + 1e-6);
}

}  // namespace
}  // namespace rbs
