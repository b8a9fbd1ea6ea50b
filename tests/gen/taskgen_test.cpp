// Tests for the synthetic task-set generator and the FMS model.
#include "gen/taskgen.hpp"

#include <gtest/gtest.h>

#include "core/edf.hpp"
#include "gen/fms.hpp"
#include "gen/rng.hpp"

namespace rbs {
namespace {

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  const double va = a.uniform(0.0, 1.0);
  EXPECT_DOUBLE_EQ(va, b.uniform(0.0, 1.0));
  EXPECT_NE(va, c.uniform(0.0, 1.0));
}

TEST(RngTest, UniformIntRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(TaskGenTest, HitsUtilizationWindow) {
  Rng rng(3);
  GenParams params;
  for (double u : {0.3, 0.5, 0.7, 0.9}) {
    params.u_bound = u;
    int generated = 0;
    for (int trial = 0; trial < 10; ++trial) {
      const auto set = generate_task_set(params, rng);
      if (!set) continue;
      ++generated;
      // Rounding C(LO) to ticks can nudge the metric slightly past the
      // acceptance window; allow a small extra slack.
      EXPECT_NEAR(system_utilization(*set), u, kUBoundTolerance + 0.01) << "u=" << u;
    }
    EXPECT_GT(generated, 5) << "u=" << u;
  }
}

TEST(TaskGenTest, ParameterRangesRespected) {
  Rng rng(4);
  GenParams params;
  params.u_bound = 0.8;
  const auto set = generate_task_set(params, rng);
  ASSERT_TRUE(set.has_value());
  EXPECT_GE(set->size(), 2u);
  for (const ImplicitTask& t : set->tasks()) {
    EXPECT_GE(t.period, params.period_min);
    EXPECT_LE(t.period, params.period_max);
    EXPECT_GE(t.c_lo, 1);
    EXPECT_LE(t.c_hi, t.period);
    EXPECT_GE(t.c_hi, t.c_lo);
    if (t.criticality == Criticality::LO) EXPECT_EQ(t.c_hi, t.c_lo);
    // gamma <= 3 up to rounding of C(LO) and the C(HI) <= T clamp.
    if (t.criticality == Criticality::HI)
      EXPECT_LE(static_cast<double>(t.c_hi) / static_cast<double>(t.c_lo), 3.0 + 1.0);
  }
}

TEST(TaskGenTest, ProducesBothCriticalities) {
  Rng rng(6);
  GenParams params;
  params.u_bound = 0.9;
  bool saw_hi = false, saw_lo = false;
  for (int trial = 0; trial < 10; ++trial) {
    const auto set = generate_task_set(params, rng);
    if (!set) continue;
    for (const ImplicitTask& t : set->tasks()) {
      saw_hi |= t.criticality == Criticality::HI;
      saw_lo |= t.criticality == Criticality::LO;
    }
  }
  EXPECT_TRUE(saw_hi);
  EXPECT_TRUE(saw_lo);
}

TEST(TaskGenTest, DeterministicGivenSeed) {
  GenParams params;
  params.u_bound = 0.6;
  Rng a(77), b(77);
  const auto sa = generate_task_set(params, a);
  const auto sb = generate_task_set(params, b);
  ASSERT_TRUE(sa.has_value());
  ASSERT_TRUE(sb.has_value());
  ASSERT_EQ(sa->size(), sb->size());
  for (std::size_t i = 0; i < sa->size(); ++i) {
    EXPECT_EQ(sa->tasks()[i].period, sb->tasks()[i].period);
    EXPECT_EQ(sa->tasks()[i].c_lo, sb->tasks()[i].c_lo);
    EXPECT_EQ(sa->tasks()[i].c_hi, sb->tasks()[i].c_hi);
  }
}

TEST(RegionGenTest, HitsBothTargets) {
  Rng rng(8);
  RegionParams params;
  params.u_hi = 0.5;
  params.u_lo = 0.4;
  int generated = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto set = generate_region_set(params, rng);
    if (!set) continue;
    ++generated;
    EXPECT_NEAR(set->u_hi_hi(), 0.5, kRegionTolerance + 0.01);
    EXPECT_NEAR(set->u_lo_lo(), 0.4, kRegionTolerance + 0.01);
  }
  EXPECT_GT(generated, 5);
}

TEST(RegionGenTest, GammaClampRespectsPeriod) {
  Rng rng(9);
  RegionParams params;
  params.u_hi = 0.8;
  params.u_lo = 0.2;
  const auto set = generate_region_set(params, rng);
  ASSERT_TRUE(set.has_value());
  for (const ImplicitTask& t : set->tasks())
    if (t.criticality == Criticality::HI) EXPECT_LE(t.c_hi, t.period);
}

TEST(FmsTest, StructureMatchesPaper) {
  const ImplicitSet fms = fms_task_set(2.0);
  ASSERT_EQ(fms.size(), 11u);
  int hi = 0, lo = 0;
  for (const ImplicitTask& t : fms.tasks()) {
    (t.criticality == Criticality::HI ? hi : lo)++;
    EXPECT_GE(t.period, 100);   // 100 ms
    EXPECT_LE(t.period, 5000);  // 5 s
  }
  EXPECT_EQ(hi, 7);
  EXPECT_EQ(lo, 4);
}

TEST(FmsTest, LoModeSchedulableAtUnitSpeed) {
  for (double gamma : {1.0, 2.0, 3.0})
    EXPECT_TRUE(lo_mode_schedulable(fms_task_set(gamma).materialize(1.0, 1.0)))
        << "gamma=" << gamma;
}

TEST(FmsTest, GammaScalesHiWcets) {
  const ImplicitSet g1 = fms_task_set(1.0);
  const ImplicitSet g3 = fms_task_set(3.0);
  for (std::size_t i = 0; i < g1.size(); ++i) {
    const ImplicitTask& a = g1.tasks()[i];
    const ImplicitTask& b = g3.tasks()[i];
    if (a.criticality == Criticality::HI) {
      EXPECT_EQ(a.c_hi, a.c_lo);
      EXPECT_GE(b.c_hi, a.c_hi);
    } else {
      EXPECT_EQ(b.c_hi, b.c_lo);
    }
  }
}

TEST(FmsTest, HiUtilizationGrowsWithGamma) {
  EXPECT_LT(fms_task_set(1.0).u_hi_hi(), fms_task_set(2.0).u_hi_hi());
  EXPECT_LT(fms_task_set(2.0).u_hi_hi(), fms_task_set(3.0).u_hi_hi());
}

}  // namespace
}  // namespace rbs
