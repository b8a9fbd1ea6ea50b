// Tests for the exhaustive pattern explorer.
#include "verify/exhaustive.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/edf.hpp"
#include "core/speedup.hpp"
#include "gen/paper_examples.hpp"
#include "sim/simulate.hpp"

namespace rbs {
namespace {

TEST(ExhaustiveTest, SafeAtSminOnTable1) {
  // Theorem 2's guarantee, checked against every enumerated pattern.
  ExploreOptions options;
  options.horizon = 22.0;
  const ExploreResult r = explore_patterns(table1_base(), 4.0 / 3.0, options);
  EXPECT_GT(r.patterns_tested, 1000u);
  EXPECT_EQ(r.patterns_missed, 0u);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_TRUE(r.witness.empty());
}

TEST(ExhaustiveTest, FindsMissBelowTrueNeed) {
  // At s = 0.9 the synchronous all-overrun pattern already misses.
  ExploreOptions options;
  options.horizon = 22.0;
  const ExploreResult r = explore_patterns(table1_base(), 0.9, options);
  EXPECT_GT(r.patterns_missed, 0u);
  ASSERT_EQ(r.witness.size(), 2u);
  // The witness replays to a miss.
  sim::SimConfig cfg;
  cfg.horizon = options.horizon;
  cfg.hi_speed = 0.9;
  cfg.scripted_arrivals = r.witness;
  EXPECT_TRUE(sim::Simulator().run(table1_base(), cfg).value().metrics.deadline_missed());
}

TEST(ExhaustiveTest, LowerBoundBracketsSmin) {
  // The exhaustive adversary's necessity bound must sit at or below s_min,
  // and for Table I it should reach 1.0 (the reachable worst case needs
  // exactly unit speed: 4 work units due within 4 ticks of the switch).
  const double lower =
      exhaustive_speedup_lower_bound(table1_base(), /*ceiling=*/1.5, /*step=*/0.125);
  const double s_min = min_speedup_value(table1_base());
  EXPECT_LE(lower, s_min + 1e-12);
  EXPECT_GE(lower, 0.875);  // at least the near-unit-speed miss is found
}

TEST(ExhaustiveTest, BudgetStopsEnumeration) {
  ExploreOptions options;
  options.horizon = 22.0;
  options.max_patterns = 50;
  const ExploreResult r = explore_patterns(table1_base(), 2.0, options);
  EXPECT_LE(r.patterns_tested, 51u);
  EXPECT_TRUE(r.budget_exhausted);
}

TEST(ExhaustiveTest, PurelyLoSetHasSingleDemandChoice) {
  // Two LO tasks: only arrival jitter is enumerated; everything meets
  // deadlines on this trivially schedulable set.
  const TaskSet set({McTask::lo("a", 1, 6, 6), McTask::lo("b", 1, 8, 8)});
  ExploreOptions options;
  options.horizon = 18.0;
  const ExploreResult r = explore_patterns(set, 1.0, options);
  EXPECT_GT(r.patterns_tested, 0u);
  EXPECT_EQ(r.patterns_missed, 0u);
}

TEST(ExhaustiveTest, OverloadCaughtBelowSminSafeAtSmin) {
  // LO-schedulable but HI-heavy (U_HI = 1.8): under-speed misses must be
  // found, while s_min is exhaustively safe.
  const TaskSet set({McTask::hi("a", 1, 4, 2, 4, 4), McTask::hi("b", 1, 4, 3, 5, 5)});
  ASSERT_TRUE(lo_mode_schedulable(set));
  const double s_min = min_speedup_value(set);
  ASSERT_TRUE(std::isfinite(s_min));

  ExploreOptions options;
  options.horizon = 12.0;
  options.first_release_max = 1;
  const ExploreResult bad = explore_patterns(set, 1.0, options);
  EXPECT_GT(bad.patterns_missed, 0u);
  const ExploreResult ok = explore_patterns(set, s_min, options);
  EXPECT_EQ(ok.patterns_missed, 0u);
}

}  // namespace
}  // namespace rbs
