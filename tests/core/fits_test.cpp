// Tests for the decision question Analyzer::fits (core/analysis.hpp).
//
// Every verdict fits gives must equal the full analysis's, on
// paper-generator, UUniFast, harmonic-grid and exact-oracle sets, at speeds
// on and around s_min (one ulp, 1e-12 and 1e-6 either side) and at 1 and 2,
// against dwell budgets on and around Delta_R, under default, degraded and
// randomly capped limits, with and without a DVFS transition latency; and
// every decision bracket must contain the true s_min. Also here: no
// breakpoint cap reports a bracket below the true s_min, and the LO-mode
// window min(L_a, H) gives the verdicts and first violations of a walk over
// L_a alone.
#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/edf.hpp"
#include "core/exact_oracle.hpp"
#include "core/grid_sets.hpp"
#include "core/reference_qpa.hpp"
#include "core/tuning.hpp"
#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr AnalysisParts kHiOnly{.speedup = true, .reset = false, .lo = false};

/// rbs_bench's harmonic period grid (hyperperiod 10^4 ticks).
constexpr std::array<Ticks, 8> kBenchGrid = {200, 250, 500, 1000, 2000, 2500, 5000, 10000};

/// A set and, when the exact oracle can scan it, its true s_min.
struct Case {
  TaskSet set;
  std::optional<double> truth;
};

Case oracle_case(const TaskSet& set, Ticks latency = 0) {
  const oracle::Speedup exact = oracle::exact_s_min(set, latency);
  return {set, exact.infinite ? kInf : exact.s_min.rounded()};
}

/// `fits` gives the verdicts of `analyze` for `request` under `max_reset`,
/// never walks more, and its s_min bracket contains the true s_min: `truth`
/// when given, else the full analysis's value when that one is exact.
void expect_fits_matches(const AnalysisRequest& request, double max_reset,
                         std::optional<double> truth) {
  SCOPED_TRACE("speed " + std::to_string(request.speed) + " budget " +
               std::to_string(max_reset) + " cap " +
               std::to_string(request.limits.max_breakpoints));
  const AnalysisReport full = analyze(request).value();
  const AnalysisReport decision = Analyzer().fits(request, max_reset).value();
  EXPECT_EQ(decision.lo_schedulable, full.lo_schedulable);
  EXPECT_EQ(decision.lo_breakpoints, full.lo_breakpoints);
  if (request.parts.lo && !full.lo_schedulable) {
    // Answered by the LO-mode test alone.
    EXPECT_FALSE(decision.hi_schedulable);
    EXPECT_EQ(decision.fused_breakpoints, 0u);
    return;
  }
  EXPECT_EQ(decision.hi_schedulable, full.hi_schedulable);
  EXPECT_EQ(decision.system_schedulable, full.system_schedulable);
  EXPECT_EQ(within_reset_budget(decision.delta_r, max_reset),
            within_reset_budget(full.delta_r, max_reset));
  EXPECT_LE(decision.fused_breakpoints, full.fused_breakpoints);
  if (!request.parts.speedup) return;

  if (!truth && full.s_min_exact) truth = full.s_min;
  if (!truth) return;
  if (std::isinf(*truth)) {
    EXPECT_TRUE(std::isinf(decision.s_min));
    return;
  }
  const double upper =
      decision.s_min_exact ? decision.s_min : decision.s_min + decision.s_min_error_bound;
  EXPECT_GE(decision.s_min_error_bound, 0.0);
  EXPECT_LE(decision.s_min, *truth * (1 + 1e-12));
  EXPECT_GE(upper, *truth * (1 - 1e-12));
}

/// Speeds on and around s_min, then 1 and 2.
std::vector<double> speeds_around(double s_min) {
  std::vector<double> speeds = {1.0, 2.0};
  if (!std::isfinite(s_min) || s_min <= 0.0) return speeds;
  for (double s : {s_min, std::nextafter(s_min, 0.0), std::nextafter(s_min, kInf),
                   s_min * (1 - 1e-12), s_min * (1 + 1e-12), s_min * (1 - 1e-6),
                   s_min * (1 + 1e-6)})
    speeds.push_back(s);
  return speeds;
}

/// Dwell budgets on and around `delta_r`, and none.
std::vector<double> budgets_around(double delta_r) {
  if (!std::isfinite(delta_r)) return {kInf, 100.0};
  return {kInf, delta_r, delta_r + 1e-6, delta_r - 1e-6, delta_r / 2};
}

/// Every speed and budget of the grids above, cycling default, degraded and
/// randomly capped limits, under transition latency `latency`. Within 0.1%
/// of U_HI, where Delta_R runs to millions of ticks, and below unit speed
/// under a latency, where Delta_R is not defined, only the budget-free
/// question is asked.
void expect_fits_matches_around(const Case& c, Rng& rng, Ticks latency = 0) {
  AnalysisRequest probe{c.set, 2.0, {}, {}};
  probe.latency = latency;
  const AnalysisReport uncapped = analyze(probe).value();
  const double s_min = c.truth.value_or(uncapped.s_min);
  std::size_t round = 0;
  for (double speed : speeds_around(s_min)) {
    AnalysisParts parts;
    parts.reset = speed > uncapped.u_hi * (1 + 1e-3) && (latency == 0 || speed >= 1.0);
    probe.speed = speed;
    probe.parts = {.speedup = false, .reset = true, .lo = false};
    const double delta_r = parts.reset ? analyze(probe).value().delta_r : kInf;
    for (double budget : parts.reset ? budgets_around(delta_r) : std::vector<double>{kInf}) {
      AnalysisLimits limits;
      if (round % 3 == 1) limits = AnalysisLimits::degraded();
      if (round % 3 == 2)
        limits.max_breakpoints = static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(uncapped.speedup_breakpoints) + 1));
      ++round;
      AnalysisRequest request{c.set, speed, parts, limits};
      request.latency = latency;
      expect_fits_matches(request, budget, c.truth);
    }
  }
}

/// Paper-generator skeletons (free periods), prepared at the exact min-x.
std::vector<Case> paper_cases(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Case> cases;
  for (int i = 0; i < 200 && static_cast<int>(cases.size()) < count; ++i) {
    GenParams params;
    params.u_bound = 0.5 + 0.1 * static_cast<double>(i % 5);
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const MinXResult mx = min_x_for_lo(*skeleton);
    if (mx.feasible) cases.push_back({skeleton->materialize(mx.x, 2.0), std::nullopt});
  }
  return cases;
}

/// UUniFast skeletons, on free periods or re-drawn from kBenchGrid.
std::vector<Case> uunifast_cases(int count, std::uint64_t seed, bool harmonic) {
  Rng rng(seed);
  std::vector<Case> cases;
  for (int i = 0; i < 200 && static_cast<int>(cases.size()) < count; ++i) {
    UUniFastParams params;
    params.n_tasks = 4 + i % 8;
    params.u_total_lo = 0.4 + 0.05 * static_cast<double>(i % 8);
    ImplicitSet skeleton = generate_uunifast_set(params, rng);
    if (harmonic) skeleton = snap_to_grid(skeleton, rng, kBenchGrid);
    const MinXResult mx = min_x_for_lo(skeleton);
    if (mx.feasible) cases.push_back({skeleton.materialize(mx.x, 2.0), std::nullopt});
  }
  return cases;
}

/// Generator sets on kOracleGrid, in the three variants of
/// AnalysisFacadeTest.AgreesOnRandomizedSets: LO service degraded, LO tasks
/// terminated, and deadlines shortened until LO mode fails.
std::vector<Case> oracle_cases(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Case> cases = {oracle_case(table1_base()), oracle_case(table1_degraded())};
  for (int i = 0; i < 400 && static_cast<int>(cases.size()) < count; ++i) {
    GenParams params;
    params.u_bound = 0.3 + 0.1 * static_cast<double>(i % 5);
    const auto drawn = generate_task_set(params, rng);
    if (!drawn) continue;
    const ImplicitSet skeleton = snap_to_grid(*drawn, rng);
    const MinXResult mx = min_x_for_lo(skeleton);
    if (!mx.feasible) continue;
    cases.push_back(oracle_case(i % 3 == 0   ? skeleton.materialize_terminating(mx.x)
                                : i % 3 == 1 ? skeleton.materialize(mx.x, 2.0)
                                             : skeleton.materialize(0.5 * mx.x, 2.0)));
  }
  return cases;
}

TEST(FitsTest, MatchesAnalyzeOnPaperGeneratorSets) {
  Rng rng(11);
  for (const Case& c : paper_cases(10, 31)) expect_fits_matches_around(c, rng);
}

TEST(FitsTest, MatchesAnalyzeOnUUniFastSets) {
  Rng rng(12);
  for (const Case& c : uunifast_cases(10, 32, false)) expect_fits_matches_around(c, rng);
}

TEST(FitsTest, MatchesAnalyzeOnHarmonicGridSets) {
  Rng rng(13);
  for (const Case& c : uunifast_cases(10, 33, true)) expect_fits_matches_around(c, rng);
}

TEST(FitsTest, MatchesAnalyzeAndBracketsTheOracleOnOracleSets) {
  Rng rng(14);
  const std::vector<Case> cases = oracle_cases(14, 34);
  ASSERT_GE(cases.size(), 10u);
  for (const Case& c : cases) expect_fits_matches_around(c, rng);
}

TEST(FitsTest, MatchesAnalyzeAndBracketsTheOracleUnderTransitionLatency) {
  // Table I at L = 1 (s_min = 1.5), 2 and 3 (no speed suffices), the set
  // whose window demand exceeds the nominal supply between two breakpoints,
  // and oracle sets under latencies up to past their shortest prepared
  // deadline.
  Rng rng(15);
  for (Ticks latency : {1, 2, 3})
    expect_fits_matches_around(oracle_case(table1_base(), latency), rng, latency);
  const TaskSet window({McTask::lo_terminated("a", 8, 8, 21), McTask::hi("b", 2, 2, 2, 4, 5),
                        McTask::hi("c", 2, 4, 3, 5, 13)});
  for (Ticks latency : {2, 3})
    expect_fits_matches_around(oracle_case(window, latency), rng, latency);
  const std::vector<Case> cases = oracle_cases(8, 35);
  ASSERT_GE(cases.size(), 8u);
  for (const Case& c : cases)
    for (const Ticks latency : {rng.uniform_int(1, 20), rng.uniform_int(21, 400)})
      expect_fits_matches_around(oracle_case(c.set, latency), rng, latency);
}

TEST(FitsTest, StopsEarlierThanTheFullSweep) {
  // Table I at s = 2: the envelope U_HI + K/Delta drops below 2 before the
  // full search proves s_min = 4/3; at s = 1 the first ratio above 1 rejects.
  AnalysisRequest request{table1_base(), 2.0, kHiOnly, {}};
  const AnalysisReport full = analyze(request).value();
  const AnalysisReport accept = Analyzer().fits(request, kInf).value();
  EXPECT_TRUE(accept.hi_schedulable);
  EXPECT_FALSE(accept.s_min_exact);
  EXPECT_LT(accept.speedup_breakpoints, full.speedup_breakpoints);
  request.speed = 1.0;
  const AnalysisReport reject = Analyzer().fits(request, kInf).value();
  EXPECT_FALSE(reject.hi_schedulable);
  EXPECT_FALSE(reject.s_min_exact);
  EXPECT_LT(reject.speedup_breakpoints, full.speedup_breakpoints);
}

TEST(FitsTest, ResetSearchStopsPastTheBudget) {
  // Delta_R(4/3) = 9 on Table I: a 4-tick budget is decided before the
  // crossing, and reported with a lower bound past the budget.
  const AnalysisRequest request{table1_base(), 4.0 / 3.0,
                                {.speedup = false, .reset = true, .lo = false}, {}};
  const AnalysisReport full = analyze(request).value();
  ASSERT_NEAR(full.delta_r, 9.0, 1e-12);
  const AnalysisReport decision = Analyzer().fits(request, 4.0).value();
  EXPECT_FALSE(decision.delta_r_exact);
  EXPECT_GT(decision.delta_r, 4.0);
  EXPECT_LE(decision.delta_r, full.delta_r);
  EXPECT_FALSE(within_reset_budget(decision.delta_r, 4.0));
  EXPECT_LT(decision.reset_breakpoints, full.reset_breakpoints);
  // No budget, no Delta_R search.
  EXPECT_EQ(Analyzer().fits(request, kInf).value().reset_breakpoints, 0u);
}

TEST(FitsTest, LoFailureAnswersAlone) {
  // U_LO = 1.1: the LO-mode test rejects and the sweep never runs.
  const TaskSet set({McTask::hi("h", 6, 8, 10, 12, 12), McTask::lo("l", 6, 10, 10)});
  const AnalysisReport decision =
      Analyzer().fits({set, 2.0, {}, {}}, kInf).value();
  EXPECT_FALSE(decision.lo_schedulable);
  EXPECT_FALSE(decision.system_schedulable);
  EXPECT_EQ(decision.fused_breakpoints, 0u);
}

TEST(FitsTest, RejectsWhatAnalyzeRejects) {
  AnalysisRequest request{table1_base(), 0.0, {}, {}};
  EXPECT_FALSE(Analyzer().fits(request, 10.0).is_ok());  // Delta_R at speed 0
  // An infinite budget needs no Delta_R, so no finite speed either.
  request.speed = kInf;
  EXPECT_TRUE(Analyzer().fits(request, kInf).value().hi_schedulable);
}

TEST(FitsTest, EveryBreakpointCapBracketsTheTrueSmin) {
  // At the cap the residual U_HI + K/Delta - best may be negative: the search
  // is then settled, not short by a negative error.
  for (const Case& c : oracle_cases(8, 35)) {
    if (!c.truth || std::isinf(*c.truth)) continue;
    const double truth = *c.truth;
    const std::size_t uncapped =
        Analyzer().analyze(c.set, 1.0, kHiOnly).value().speedup_breakpoints;
    for (std::size_t cap = 1; cap <= uncapped; ++cap) {
      SCOPED_TRACE("cap " + std::to_string(cap) + " of " + std::to_string(uncapped));
      AnalysisLimits limits;
      limits.max_breakpoints = cap;
      const AnalysisReport r = Analyzer().analyze({c.set, 1.0, kHiOnly, limits}).value();
      EXPECT_GE(r.s_min_error_bound, 0.0);
      EXPECT_GE(r.s_min + r.s_min_error_bound, truth * (1 - 1e-12));
      for (double s : {truth * (1 - 1e-6), truth, truth * (1 + 1e-6)})
        expect_fits_matches({c.set, s, kHiOnly, limits}, kInf, truth);
    }
  }
}

// --- the LO-mode window min(L_a, H) ------------------------------------------

/// The LO-mode forward walk over the utilization window L_a alone, written
/// without the library's breakpoint merger: the reference for the
/// hyperperiod bound of LoDemandTable::window. Needs U definitely below 1.
EdfTestResult utilization_window_walk(const TaskSet& set) {
  double u = 0.0;
  double slack = 0.0;
  for (const McTask& t : set) {
    u += t.utilization(Mode::LO);
    slack += t.utilization(Mode::LO) *
             static_cast<double>(t.period(Mode::LO) - t.deadline(Mode::LO));
  }
  const Ticks l_a = static_cast<Ticks>(slack / (1.0 - u)) + 1;
  std::vector<Ticks> next;  // each task's next step point D + kT
  for (const McTask& t : set) next.push_back(t.deadline(Mode::LO));
  EdfTestResult result;
  Ticks demand = 0;
  while (true) {
    const Ticks d = *std::min_element(next.begin(), next.end());
    if (d > l_a) break;
    ++result.breakpoints_visited;
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (next[i] != d) continue;
      demand += set[i].wcet(Mode::LO);
      next[i] += set[i].period(Mode::LO);
    }
    if (demand > d) {
      result.violation_delta = d;
      return result;
    }
  }
  result.schedulable = true;
  return result;
}

/// `set` with its periods and deadlines 10^6 times longer and each C(LO)
/// scaled, to the nearest tick, by 10^6 / (U * (1 + margin)): U comes to
/// 1 / (1 + margin) up to a few 10^-7, and at speed 1 the set meets its
/// deadlines where `set` meets them at speed U * (1 + margin), up to that
/// rounding.
TaskSet just_below_one(const TaskSet& set, double margin) {
  constexpr Ticks kScale = 1'000'000;
  const double factor =
      static_cast<double>(kScale) / (set.total_utilization(Mode::LO) * (1 + margin));
  std::vector<McTask> tasks;
  for (const McTask& t : set) {
    const Ticks d = t.deadline(Mode::LO) * kScale;
    const Ticks c = std::clamp<Ticks>(
        std::llround(static_cast<double>(t.wcet(Mode::LO)) * factor), 1, d);
    tasks.push_back(McTask::lo(t.name(), c, d, t.period(Mode::LO) * kScale));
  }
  return TaskSet(tasks);
}

/// LO tasks with periods from `periods` and C(LO) up to T/n; about half
/// have implicit deadlines and the rest D(LO) in [max(C, 7T/8), T].
template <std::size_t N>
TaskSet random_lo_set(Rng& rng, const std::array<Ticks, N>& periods) {
  std::vector<McTask> tasks;
  const int n = static_cast<int>(rng.uniform_int(3, 7));
  for (int i = 0; i < n; ++i) {
    const Ticks period = periods[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(N) - 1))];
    const Ticks c = rng.uniform_int(1, std::max<Ticks>(1, period / n));
    const Ticks d = rng.uniform_int(0, 1) == 0
                        ? period
                        : rng.uniform_int(std::max(c, period - period / 8), period);
    tasks.push_back(McTask::lo("t" + std::to_string(i), c, d, period));
  }
  return TaskSet(tasks);
}

template <std::size_t N>
void expect_window_matches(const std::array<Ticks, N>& periods, std::uint64_t seed,
                           int* shortened, int* violated) {
  Rng rng(seed);
  for (int i = 0; i < 150; ++i) {
    const TaskSet drawn = random_lo_set(rng, periods);
    for (double margin : {1e-3, 2e-4}) {
      SCOPED_TRACE("set " + std::to_string(i) + " margin " + std::to_string(margin));
      const TaskSet set = just_below_one(drawn, margin);
      ASSERT_TRUE(definitely_lt(set.total_utilization(Mode::LO), 1.0, kSpeedTol));
      const EdfTestResult expected = utilization_window_walk(set);
      const EdfTestResult walked = lo_mode_test(set);
      EXPECT_TRUE(walked.conclusive);
      EXPECT_EQ(walked.schedulable, expected.schedulable);
      EXPECT_EQ(walked.violation_delta, expected.violation_delta);
      EXPECT_LE(walked.breakpoints_visited, expected.breakpoints_visited);
      const EdfTestResult qpa = reference::qpa_lo_test(set);
      EXPECT_TRUE(qpa.conclusive);
      EXPECT_EQ(qpa.schedulable, expected.schedulable);
      *shortened += walked.breakpoints_visited < expected.breakpoints_visited ? 1 : 0;
      *violated += expected.schedulable ? 0 : 1;
    }
  }
}

TEST(LoWindowTest, HyperperiodWindowMatchesUtilizationWindowOnHarmonicSets) {
  int shortened = 0;
  int violated = 0;
  expect_window_matches(kOracleGrid, 41, &shortened, &violated);
  expect_window_matches(kBenchGrid, 42, &shortened, &violated);
  EXPECT_GT(shortened, 0);  // H < L_a happened
  EXPECT_GT(violated, 0);   // and so did violations
}

TEST(LoWindowTest, HyperperiodWindowMatchesUtilizationWindowOnCoprimeSets) {
  // Coprime periods: unless a set repeats one period, H is far beyond L_a
  // and the window stays L_a.
  constexpr std::array<Ticks, 7> kCoprime = {97, 101, 103, 107, 109, 113, 127};
  int shortened = 0;
  int violated = 0;
  expect_window_matches(kCoprime, 43, &shortened, &violated);
  EXPECT_GT(violated, 0);
}

}  // namespace
}  // namespace rbs
