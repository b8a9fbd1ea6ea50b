// Differential test of the reusable LO-mode demand table (core/edf.hpp):
// min_x_for_lo moves the HI tasks' deadlines of one table from probe to
// probe, and at every probe its result must equal lo_mode_test on the set
// materialised at that x, which builds a table afresh, and its verdict must
// equal QPA's (tests/core/reference_qpa.hpp). Paper, UUniFast,
// harmonic-grid and FMS skeletons, plus the edge cases of the window and of
// the ring order: U within kSpeedTol of 1 and above it, an overflowing
// hyperperiod, deadlines clamped at C(LO), x = 1, and equal starts in one
// period's ring that split and merge as x moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "core/edf.hpp"
#include "core/grid_sets.hpp"
#include "core/reference_qpa.hpp"
#include "core/tuning.hpp"
#include "gen/fms.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

constexpr std::array<Ticks, 8> kBenchGrid = {200, 250, 500, 1000, 2000, 2500, 5000, 10000};

void expect_same(const EdfTestResult& got, const EdfTestResult& want) {
  EXPECT_EQ(got.schedulable, want.schedulable);
  EXPECT_EQ(got.conclusive, want.conclusive);
  EXPECT_EQ(got.violation_delta, want.violation_delta);
  EXPECT_EQ(got.breakpoints_visited, want.breakpoints_visited);
}

/// The table of `skeleton` prepared at `x` against a fresh test of the set
/// materialised there, field for field, and against QPA's verdict, which
/// shares no walk with either; returns the verdict.
bool probe(LoDemandTable& table, const ImplicitSet& skeleton, double x,
           std::size_t max_breakpoints = kBreakpointBudget) {
  SCOPED_TRACE("x = " + std::to_string(x));
  table.prepare_hi_deadlines(x);
  const EdfTestResult got = table.test(max_breakpoints);
  const TaskSet set = skeleton.materialize(x, 1.0);
  expect_same(got, lo_mode_test(set, max_breakpoints));
  const EdfTestResult qpa = reference::qpa_lo_test(set, max_breakpoints);
  if (got.conclusive && qpa.conclusive) EXPECT_EQ(got.schedulable, qpa.schedulable);
  return got.schedulable;
}

struct Bisection {
  int probes = 0;
  double x = 1.0;  ///< where it ended, as min_x_for_lo reports it
};

/// Replays min_x_for_lo's bisection on one table, checking every probe, then
/// sweeps x down and up again over the same table.
Bisection expect_probes_match(const ImplicitSet& skeleton,
                              std::size_t max_breakpoints = kBreakpointBudget) {
  LoDemandTable table(skeleton);
  expect_same(table.test(max_breakpoints),
              lo_mode_test(skeleton.materialize(1.0, 1.0), max_breakpoints));
  Bisection bisection;
  if (probe(table, skeleton, 1.0, max_breakpoints)) {
    double lo = 0.0;
    while (bisection.x - lo > 1e-4) {
      const double mid = 0.5 * (lo + bisection.x);
      (probe(table, skeleton, mid, max_breakpoints) ? bisection.x : lo) = mid;
      ++bisection.probes;
    }
  }
  for (double x : {0.05, 0.9, 1e-6, 0.5, 0.25, 1.0, 0.75, 0.1})
    probe(table, skeleton, x, max_breakpoints);
  return bisection;
}

/// expect_probes_match at the defaults, whose bisection is min_x_for_lo's.
int expect_min_x_probes_match(const ImplicitSet& skeleton) {
  const Bisection bisection = expect_probes_match(skeleton);
  const MinXResult min_x = min_x_for_lo(skeleton);
  if (min_x.feasible) EXPECT_EQ(bisection.x, min_x.x);
  return bisection.probes;
}

TEST(LoDemandTableTest, PaperSetsMatchAtEveryProbe) {
  Rng rng(2101);
  int probes = 0;
  for (int i = 0; i < 300; ++i) {
    GenParams params;
    params.u_bound = 0.5 + 0.1 * static_cast<double>(i % 5);
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    SCOPED_TRACE("paper set " + std::to_string(i));
    probes += expect_min_x_probes_match(*skeleton);
  }
  EXPECT_GT(probes, 3000);
}

TEST(LoDemandTableTest, UUniFastSetsMatchAtEveryProbe) {
  Rng rng(2102);
  for (int i = 0; i < 200; ++i) {
    UUniFastParams params;
    params.n_tasks = 4 + i % 17;
    params.u_total_lo = 0.4 + 0.05 * static_cast<double>(i % 11);
    SCOPED_TRACE("UUniFast set " + std::to_string(i));
    expect_min_x_probes_match(generate_uunifast_set(params, rng));
  }
}

TEST(LoDemandTableTest, HarmonicGridSetsMatchAtEveryProbe) {
  // Many tasks per period: each period's ring holds several HI deadlines
  // that clamp, meet and part as x moves.
  Rng rng(2103);
  for (int i = 0; i < 120; ++i) {
    UUniFastParams params;
    params.n_tasks = 16 << (i % 3);
    params.u_total_lo = 0.5 + 0.05 * static_cast<double>(i % 7);
    SCOPED_TRACE("grid set " + std::to_string(i));
    expect_min_x_probes_match(snap_to_grid(generate_uunifast_set(params, rng), rng, kBenchGrid));
  }
}

TEST(LoDemandTableTest, FmsSetMatchesAtEveryProbe) {
  for (double gamma : {1.5, 2.0, 3.0}) {
    SCOPED_TRACE("gamma " + std::to_string(gamma));
    EXPECT_GT(expect_min_x_probes_match(fms_task_set(gamma)), 0);
  }
}

TEST(LoDemandTableTest, UtilizationAtTheSpeedMatches) {
  // U = 1/3 + 1/3 + 1/3: below x = 1 the HI deadline is constrained and the
  // window is the hyperperiod, compared exactly.
  const ImplicitSet third({{"h", Criticality::HI, 30, 10, 15},
                          {"a", Criticality::LO, 60, 20, 20},
                          {"b", Criticality::LO, 90, 30, 30}});
  expect_min_x_probes_match(third);
  // Ten C/T = 1/10 tasks: the double U is an ulp short of 1.
  std::vector<ImplicitTask> tenths;
  for (int i = 0; i < 10; ++i)
    tenths.push_back({"t" + std::to_string(i), i % 2 == 0 ? Criticality::HI : Criticality::LO,
                      10, 1, 1});
  expect_min_x_probes_match(ImplicitSet(tenths));
}

TEST(LoDemandTableTest, OverflowingHyperperiodMatches) {
  // U = 1/2 + 1/2 with H = 2pq past kInfTicks: only the breakpoint budget
  // bounds the walk below x = 1, and the tests run out of it alike.
  constexpr Ticks p = 999'999'937;
  constexpr Ticks q = 999'999'929;
  const ImplicitSet set({{"h", Criticality::HI, 2 * p, p, p}, {"l", Criticality::LO, 2 * q, q, q}});
  expect_probes_match(set, 1'000);
  // With l at half its work, U = 3/4 is definitely below 1: the fold gives
  // up at its cap L_a, far below H, and the window is L_a alone.
  const ImplicitSet below(
      {{"h", Criticality::HI, 2 * p, p, p}, {"l", Criticality::LO, 2 * q, q / 2, q / 2}});
  expect_probes_match(below, 1'000);
}

TEST(LoDemandTableTest, ClampedAndEqualStartsMatch) {
  // Four HI tasks and a LO task share one period. h2, h1 and h3 clamp at
  // C(LO) below x = 0.09, 0.12 and 0.2; above that each starts at
  // floor(100x) with h5, so their stops split and merge as x moves, and at
  // x = 1 all five start at T.
  const ImplicitSet set({{"h1", Criticality::HI, 100, 12, 20},
                         {"l", Criticality::LO, 100, 3, 3},
                         {"h2", Criticality::HI, 100, 9, 15},
                         {"h3", Criticality::HI, 100, 20, 30},
                         {"h4", Criticality::HI, 200, 11, 20},
                         {"h5", Criticality::HI, 100, 1, 2}});
  LoDemandTable table(set);
  for (double x : {1.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.12, 0.5, 1e-6, 0.99, 1.0, 0.09})
    probe(table, set, x);
  EXPECT_GT(expect_min_x_probes_match(set), 0);
}

TEST(LoDemandTableTest, UtilizationAboveTheSpeedAnswersFromTheWindow) {
  // U definitely above 1: the window rejects with no walk (violation 0, no
  // breakpoint), and the same table refilled with a set below 1 walks it
  // with the result of a table built for that set. Tables refilled by
  // assign() and skeleton tables moved by prepare_hi_deadlines alike.
  Rng rng(2104);
  LoDemandTable reused;
  int sets = 0;
  for (int i = 0; sets < 200; ++i) {
    ASSERT_LT(i, 2000) << "the generator yields too few sets";
    GenParams params;
    params.u_bound = 0.5 + 0.1 * static_cast<double>(i % 5);
    std::optional<ImplicitSet> skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    if (i % 2 == 0) skeleton = snap_to_grid(*skeleton, rng, kBenchGrid);
    const MinXResult min_x = min_x_for_lo(*skeleton);
    if (!min_x.feasible) continue;
    ++sets;
    SCOPED_TRACE("set " + std::to_string(i));
    const TaskSet set = skeleton->materialize(min_x.x, 2.0);
    // One more LO task of period 1000 lifts U to about 1.1.
    const double u = set.total_utilization(Mode::LO);
    const Ticks c = std::min<Ticks>(1000, static_cast<Ticks>(std::ceil(1000 * (1.1 - u))));
    std::vector<McTask> tasks = set.tasks();
    tasks.push_back(McTask::lo("over", c, 1000, 1000));
    const TaskSet over(tasks);
    ASSERT_GT(over.total_utilization(Mode::LO), 1.05);

    reused.assign(over);
    const EdfTestResult rejected = reused.test();
    EXPECT_FALSE(rejected.schedulable);
    EXPECT_TRUE(rejected.conclusive);
    EXPECT_EQ(rejected.violation_delta, 0);
    EXPECT_EQ(rejected.breakpoints_visited, 0u);
    expect_same(rejected, lo_mode_test(over));
    EXPECT_FALSE(reference::qpa_lo_test(over).schedulable);
    reused.assign(set);
    expect_same(reused.test(), lo_mode_test(set));
    reused.assign(over);
    expect_same(reused.test(), rejected);

    // A skeleton table above 1 stays rejected by U at every probe, and its
    // skeleton below 1 walks a table of its own as lo_mode_test does.
    std::vector<ImplicitTask> lifted = skeleton->tasks();
    lifted.push_back({"over", Criticality::LO, 1000, c, c});
    const ImplicitSet lifted_set(lifted);
    LoDemandTable table(lifted_set);
    expect_same(table.test(), lo_mode_test(lifted_set.materialize(1.0, 1.0)));
    for (double x : {min_x.x, 1.0, 0.5 * min_x.x}) {
      EXPECT_FALSE(probe(table, lifted_set, x));
      EXPECT_EQ(table.test().breakpoints_visited, 0u);
    }
    LoDemandTable walked(*skeleton);
    for (double x : {min_x.x, 1.0, 0.5 * min_x.x}) probe(walked, *skeleton, x);
  }
}

}  // namespace
}  // namespace rbs
