// Differential suite for the span path of the analysis (analyze_tasks over
// one caller-owned AnalysisStorage): the multicore probes that run on it
// must give what the TaskSet-per-probe algorithms they replaced give.
//
//  * partition_first_fit against a first-fit loop that builds a TaskSet per
//    probe and asks Analyzer::fits, then analyses each final core set in
//    full: assignment, core_s_min and core_delta_r bit-equal.
//  * The span find_fallback against apply_termination + Analyzer::fits,
//    tier by tier, and its result against the tier those decide.
//  * analyze_degraded, on one task vector and one storage, against the
//    same tiers plus separate facade calls: every field bit-equal.
//  * One storage reused across shuffled sets and requests: every report
//    equals a fresh one-shot facade call, field for field, counters
//    included, so nothing a call leaves in the storage reaches the next.
//  * analyze_resilience's nominal verdict, decision questions over its
//    storage, against a full Analyzer::analyze of each core's set: for the
//    system, and for each core alone as a one-core system.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "core/analysis.hpp"
#include "core/analysis_storage.hpp"
#include "core/grid_sets.hpp"
#include "core/partition.hpp"
#include "core/resilience.hpp"
#include "core/speedup.hpp"
#include "core/tuning.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "multi/resilience.hpp"

namespace rbs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The harmonic grid of rbs_bench's multicore_k1 systems (lcm 10^4 ticks).
constexpr std::array<Ticks, 8> kBenchGrid = {200, 250, 500, 1000, 2000, 2500, 5000, 10000};

void expect_same_report(const AnalysisReport& got, const AnalysisReport& want) {
  EXPECT_EQ(got.s_min, want.s_min);
  EXPECT_EQ(got.s_min_exact, want.s_min_exact);
  EXPECT_EQ(got.s_min_error_bound, want.s_min_error_bound);
  EXPECT_EQ(got.s_min_argmax, want.s_min_argmax);
  EXPECT_EQ(got.delta_r, want.delta_r);
  EXPECT_EQ(got.delta_r_exact, want.delta_r_exact);
  EXPECT_EQ(got.lo_schedulable, want.lo_schedulable);
  EXPECT_EQ(got.hi_schedulable, want.hi_schedulable);
  EXPECT_EQ(got.system_schedulable, want.system_schedulable);
  EXPECT_EQ(got.speed, want.speed);
  EXPECT_EQ(got.u_lo, want.u_lo);
  EXPECT_EQ(got.u_hi, want.u_hi);
  EXPECT_EQ(got.speedup_breakpoints, want.speedup_breakpoints);
  EXPECT_EQ(got.reset_breakpoints, want.reset_breakpoints);
  EXPECT_EQ(got.fused_breakpoints, want.fused_breakpoints);
  EXPECT_EQ(got.lo_breakpoints, want.lo_breakpoints);
}

void expect_same_result(const Expected<AnalysisReport>& got, const Expected<AnalysisReport>& want) {
  ASSERT_EQ(got.is_ok(), want.is_ok()) << want.error_message() << got.error_message();
  if (want) expect_same_report(*got, *want);
}

/// A paper-generator set at `u_bound`, on the harmonic grid when `grid`,
/// prepared at its minimal LO-feasible x with LO service degraded to y = 2
/// or, when `terminate`, LO tasks terminated in HI mode.
std::optional<TaskSet> paper_set(Rng& rng, double u_bound, bool grid, bool terminate) {
  GenParams params;
  params.u_bound = u_bound;
  std::optional<ImplicitSet> skeleton = generate_task_set(params, rng);
  if (!skeleton) return std::nullopt;
  if (grid) skeleton = snap_to_grid(*skeleton, rng, kBenchGrid);
  const MinXResult min_x = min_x_for_lo(*skeleton);
  if (!min_x.feasible) return std::nullopt;
  return terminate ? skeleton->materialize_terminating(min_x.x)
                   : skeleton->materialize(min_x.x, 2.0);
}

// ---- partition_first_fit -------------------------------------------------

/// The first-fit loop the span path replaced: a TaskSet per probe, one
/// Analyzer::fits decision each, and a full analysis of each final core set.
PartitionResult reference_first_fit(const TaskSet& set, std::size_t cores,
                                    const PartitionOptions& options) {
  PartitionResult result;
  result.assignment.assign(cores, {});
  std::vector<std::vector<McTask>> bins(cores);
  std::vector<std::size_t> order(set.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double wa = set[a].utilization(Mode::LO) + set[a].utilization(Mode::HI);
    const double wb = set[b].utilization(Mode::LO) + set[b].utilization(Mode::HI);
    if (wa != wb) return wa > wb;  // rbs-lint: allow(float-eq)
    return tie_key(set[a]) < tie_key(set[b]);
  });
  for (std::size_t index : order) {
    bool placed = false;
    for (std::size_t c = 0; c < cores && !placed; ++c) {
      bins[c].push_back(set[index]);
      const CoreBudget budget = core_budget(options, c);
      AnalysisRequest probe;
      probe.set = TaskSet(bins[c]);
      probe.speed = budget.hi_speedup;
      const Expected<AnalysisReport> report = Analyzer().fits(probe, budget.max_reset);
      if (report && report->system_schedulable &&
          within_reset_budget(report->delta_r, budget.max_reset)) {
        result.assignment[c].push_back(index);
        placed = true;
      } else {
        bins[c].pop_back();
      }
    }
    if (!placed) {
      result.rejected_task = index;
      return result;
    }
  }
  result.feasible = true;
  for (std::size_t c = 0; c < cores; ++c) {
    if (bins[c].empty()) {
      result.core_s_min.push_back(0.0);
      result.core_delta_r.push_back(0.0);
      continue;
    }
    AnalysisRequest request;
    request.set = TaskSet(bins[c]);
    request.speed = core_budget(options, c).hi_speedup;
    const Expected<AnalysisReport> report = analyze(request);
    result.core_s_min.push_back(report ? report->s_min : kInf);
    result.core_delta_r.push_back(report ? report->delta_r : kInf);
  }
  return result;
}

TEST(SpanPathTest, PartitionMatchesTaskSetPerProbeFirstFit) {
  Rng rng(2401);
  int systems = 0;
  int feasible = 0;
  int finite_budget = 0;
  for (int i = 0; systems < 520; ++i) {
    ASSERT_LT(i, 5000) << "the generator yields too few systems";
    const std::size_t cores = 2 + static_cast<std::size_t>(i % 3);
    const bool grid = i % 2 == 0;
    std::vector<McTask> tasks;
    bool generated = true;
    for (std::size_t c = 0; c < cores && generated; ++c) {
      const std::optional<TaskSet> core_set =
          paper_set(rng, 0.3 + 0.05 * static_cast<double>(i % 4), grid, i % 7 == 0);
      if (!core_set) generated = false;
      else
        for (const McTask& t : *core_set) tasks.push_back(t);
    }
    if (!generated) continue;
    const TaskSet system(std::move(tasks));

    PartitionOptions options;
    switch (i % 4) {
      case 0: break;  // uniform: s = 2, no dwell budget
      case 1:
        options.hi_speedup = 1.5;
        options.max_reset = static_cast<double>(rng.uniform_int(500, 20000));
        break;
      default:  // heterogeneous, finite budgets on some cores
        for (std::size_t c = 0; c < cores; ++c)
          options.core_budgets.push_back(
              {1.25 + 0.25 * static_cast<double>(rng.uniform_int(0, 4)),
               rng.uniform_int(0, 1) == 0 ? kInf
                                          : static_cast<double>(rng.uniform_int(300, 30000))});
        break;
    }
    bool finite = std::isfinite(options.max_reset);
    for (const CoreBudget& b : options.core_budgets) finite = finite || std::isfinite(b.max_reset);
    finite_budget += finite ? 1 : 0;

    const PartitionResult got = partition_first_fit(system, cores, options);
    const PartitionResult want = reference_first_fit(system, cores, options);
    ++systems;
    feasible += want.feasible ? 1 : 0;
    ASSERT_EQ(got.feasible, want.feasible) << "system " << i;
    EXPECT_EQ(got.rejected_task, want.rejected_task) << "system " << i;
    EXPECT_EQ(got.assignment, want.assignment) << "system " << i;
    EXPECT_EQ(got.core_s_min, want.core_s_min) << "system " << i;
    EXPECT_EQ(got.core_delta_r, want.core_delta_r) << "system " << i;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(feasible, 100);
  EXPECT_LT(feasible, systems);
  EXPECT_GT(finite_budget, 100);
}

// ---- find_fallback -------------------------------------------------------

/// The sacrifice order find_fallback documents: live LO tasks by decreasing
/// U(HI), ties by index.
std::vector<std::size_t> sacrifice_order(const TaskSet& set) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < set.size(); ++i)
    if (!set[i].is_hi() && !set[i].dropped_in_hi()) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return set[a].utilization(Mode::HI) > set[b].utilization(Mode::HI);
  });
  return order;
}

TEST(SpanPathTest, FallbackTiersMatchApplyTerminationAndFits) {
  Rng rng(2402);
  AnalysisStorage storage;
  std::vector<McTask> tasks;
  int sets = 0;
  int with_dropped = 0;
  int past_tier0 = 0;
  int finite_budget = 0;
  for (int i = 0; sets < 1100; ++i) {
    ASSERT_LT(i, 10000) << "the generator yields too few sets";
    std::optional<TaskSet> drawn = paper_set(rng, 0.5 + 0.1 * static_cast<double>(i % 5),
                                             i % 3 == 0, false);
    if (!drawn) continue;
    // Terminate a few LO tasks in the input, so the tiers skip dropped ones.
    std::vector<std::size_t> dropped;
    for (std::size_t t = 0; t < drawn->size(); ++t)
      if (!(*drawn)[t].is_hi() && rng.uniform_int(0, 4) == 0) dropped.push_back(t);
    const TaskSet set = apply_termination(*drawn, dropped).value();
    with_dropped += dropped.empty() ? 0 : 1;
    ++sets;

    const double speed = 0.5 + 0.1 * static_cast<double>(rng.uniform_int(0, 15));
    const double max_reset =
        rng.uniform_int(0, 1) == 0 ? kInf : static_cast<double>(rng.uniform_int(100, 40000));
    finite_budget += std::isfinite(max_reset) ? 1 : 0;
    AnalysisLimits limits;
    if (i % 5 == 0) limits = AnalysisLimits::degraded();
    if (i % 11 == 0) limits.max_breakpoints = static_cast<std::size_t>(rng.uniform_int(1, 50));

    // Tier by tier: the in-place tier against apply_termination + fits.
    AnalysisRequest request;
    request.speed = speed;
    request.parts = {.speedup = true, .reset = true, .lo = false};
    request.limits = limits;
    const std::vector<std::size_t> order = sacrifice_order(set);
    tasks.assign(set.begin(), set.end());
    std::vector<std::size_t> terminated;
    FallbackFit want;
    for (std::size_t tier = 0; tier <= order.size(); ++tier) {
      if (tier > 0) {
        terminated.push_back(order[tier - 1]);
        tasks[order[tier - 1]].set_hi_service(kInfTicks, kInfTicks);
      }
      AnalysisRequest reduced = request;
      reduced.set = apply_termination(set, terminated).value();
      const Expected<AnalysisReport> fits = Analyzer().fits(reduced, max_reset);
      expect_same_result(analyze_tasks(tasks, request, storage, max_reset), fits);
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "set " << i << " tier " << tier;
        return;
      }
      if (fits && fits->hi_schedulable) {
        want.feasible = true;
        want.fallback.terminated = terminated;
        want.within_budget = within_reset_budget(fits->delta_r, max_reset);
        break;
      }
    }
    past_tier0 += want.fallback.tier() > 0 ? 1 : 0;

    // The search itself.
    tasks.assign(set.begin(), set.end());
    const FallbackFit got = find_fallback(tasks, speed, max_reset, limits, storage);
    EXPECT_EQ(got.feasible, want.feasible) << "set " << i;
    EXPECT_EQ(got.fallback.terminated, want.fallback.terminated) << "set " << i;
    EXPECT_EQ(got.within_budget, want.within_budget) << "set " << i;
    // The vector holds the last tier decided.
    const TaskSet last = apply_termination(set, want.feasible ? want.fallback.terminated : order)
                             .value();
    for (std::size_t t = 0; t < set.size(); ++t)
      EXPECT_EQ(tasks[t].params(Mode::HI).period, last[t].params(Mode::HI).period)
          << "set " << i << " task " << t;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(with_dropped, 200);
  EXPECT_GT(past_tier0, 100);
  EXPECT_GT(finite_budget, 300);
}

// ---- analyze_degraded ----------------------------------------------------

/// analyze_degraded as the TaskSet-per-call algorithm computes it: the tiers
/// built by apply_termination and decided by Analyzer::fits without a dwell
/// budget, then separate facade calls on the set as given or the accepted
/// tier -- Theorem 2 alone at speed 1 for each s_min, Corollary 5 alone at
/// `speed` for Delta_R -- each +inf should the facade reject its request.
DegradedGuarantee reference_degraded(const TaskSet& set, double speed,
                                     const AnalysisLimits& limits) {
  const auto s_min_of = [&](const TaskSet& tier) {
    const Expected<AnalysisReport> report = Analyzer().analyze(
        {tier, 1.0, 1.0, {.speedup = true, .reset = false, .lo = false}, limits});
    return report ? report->s_min : kInf;
  };
  DegradedGuarantee g;
  g.achieved_speed = speed;
  g.nominal_s_min = s_min_of(set);
  g.s_min_with_fallback = g.nominal_s_min;
  g.delta_r = kInf;

  AnalysisRequest request;
  request.speed = speed;
  request.parts = {.speedup = true, .reset = true, .lo = false};
  request.limits = limits;
  const std::vector<std::size_t> order = sacrifice_order(set);
  std::vector<std::size_t> terminated;
  std::optional<TaskSet> accepted;
  for (std::size_t tier = 0; tier <= order.size() && !accepted; ++tier) {
    if (tier > 0) terminated.push_back(order[tier - 1]);
    request.set = apply_termination(set, terminated).value();
    const Expected<AnalysisReport> fits = Analyzer().fits(request, kInf);
    if (fits && fits->hi_schedulable) accepted = request.set;
  }
  g.schedulable_unmodified = accepted && terminated.empty();
  g.hi_mode_misses_licensed = !g.schedulable_unmodified;
  if (!accepted) return g;
  g.feasible = true;
  g.fallback.terminated = terminated;
  if (!g.schedulable_unmodified) g.s_min_with_fallback = s_min_of(*accepted);
  const Expected<AnalysisReport> reset = Analyzer().analyze(
      {*accepted, speed, 1.0, {.speedup = false, .reset = true, .lo = false}, limits});
  g.delta_r = reset ? reset->delta_r : kInf;
  return g;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(SpanPathTest, AnalyzeDegradedMatchesTaskSetPerCallAlgorithm) {
  Rng rng(2404);
  int sets = 0;
  int with_dropped = 0;
  int unmodified = 0;
  int fallback = 0;
  int infeasible = 0;
  for (int i = 0; sets < 1000; ++i) {
    ASSERT_LT(i, 10000) << "the generator yields too few sets";
    std::optional<TaskSet> drawn = paper_set(rng, 0.5 + 0.1 * static_cast<double>(i % 5),
                                             i % 3 == 0, false);
    if (!drawn) continue;
    // Terminate a few LO tasks in the input, so the tiers skip dropped ones.
    std::vector<std::size_t> dropped;
    for (std::size_t t = 0; t < drawn->size(); ++t)
      if (!(*drawn)[t].is_hi() && rng.uniform_int(0, 4) == 0) dropped.push_back(t);
    const TaskSet set = apply_termination(*drawn, dropped).value();
    with_dropped += dropped.empty() ? 0 : 1;
    ++sets;

    const double u_hi = set.total_utilization(Mode::HI);
    const double s_min = min_speedup_value(set);
    for (const double speed :
         {0.9 * u_hi, u_hi, s_min * (1 - 1e-6), s_min * (1 + 1e-6), 1.0, 2.0}) {
      const DegradedGuarantee got = analyze_degraded(set, speed);
      const DegradedGuarantee want = reference_degraded(set, speed, AnalysisLimits{});
      EXPECT_EQ(bits(got.achieved_speed), bits(want.achieved_speed));
      EXPECT_EQ(bits(got.nominal_s_min), bits(want.nominal_s_min));
      EXPECT_EQ(got.schedulable_unmodified, want.schedulable_unmodified);
      EXPECT_EQ(got.feasible, want.feasible);
      EXPECT_EQ(got.fallback.terminated, want.fallback.terminated);
      EXPECT_EQ(bits(got.s_min_with_fallback), bits(want.s_min_with_fallback));
      EXPECT_EQ(bits(got.delta_r), bits(want.delta_r));
      EXPECT_EQ(got.hi_mode_misses_licensed, want.hi_mode_misses_licensed);
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "set " << i << " speed " << speed;
        return;
      }
      unmodified += got.schedulable_unmodified ? 1 : 0;
      fallback += got.feasible && !got.schedulable_unmodified ? 1 : 0;
      infeasible += got.feasible ? 0 : 1;
    }
  }
  EXPECT_GT(with_dropped, 500);
  EXPECT_GT(unmodified, 2000);
  EXPECT_GT(fallback, 2000);
  EXPECT_GT(infeasible, 200);
}

// ---- storage reuse -------------------------------------------------------

TEST(SpanPathTest, ReusedStorageMatchesFreshCalls) {
  Rng rng(2403);
  std::vector<TaskSet> sets;
  for (int i = 0; sets.size() < 300; ++i) {
    ASSERT_LT(i, 5000) << "the generator yields too few sets";
    if (i % 4 == 3) {
      // Grid UUniFast sets of 8 to 40 tasks, beside the paper sets.
      UUniFastParams uunifast;
      uunifast.n_tasks = 8 + 8 * (i % 5);
      const ImplicitSet skeleton =
          snap_to_grid(generate_uunifast_set(uunifast, rng), rng, kBenchGrid);
      const MinXResult min_x = min_x_for_lo(skeleton);
      if (min_x.feasible) sets.push_back(skeleton.materialize(min_x.x, 2.0));
      continue;
    }
    if (std::optional<TaskSet> set =
            paper_set(rng, 0.5 + 0.1 * static_cast<double>(i % 5), i % 2 == 0, i % 9 == 0))
      sets.push_back(*set);
  }

  AnalysisStorage storage;
  int calls = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::size_t> order(sets.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t k = order.size(); k > 1; --k)
      std::swap(order[k - 1], order[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
    for (std::size_t index : order) {
      AnalysisRequest request;
      request.set = sets[index];
      request.speed = 0.8 + 0.2 * static_cast<double>(rng.uniform_int(0, 7));
      request.lo_speed = rng.uniform_int(0, 3) == 0 ? 0.9 : 1.0;
      request.parts = {.speedup = rng.uniform_int(0, 3) != 0,
                       .reset = rng.uniform_int(0, 3) != 0,
                       .lo = rng.uniform_int(0, 3) != 0};
      if (rng.uniform_int(0, 5) == 0) request.latency = rng.uniform_int(1, 200);
      if (rng.uniform_int(0, 7) == 0) request.limits = AnalysisLimits::degraded();
      const int question = static_cast<int>(rng.uniform_int(0, 2));
      if (question == 0) {
        expect_same_result(analyze_tasks(sets[index], request, storage), analyze(request));
      } else {
        const double max_reset =
            question == 1 ? kInf : static_cast<double>(rng.uniform_int(50, 20000));
        expect_same_result(analyze_tasks(sets[index], request, storage, max_reset),
                           Analyzer().fits(request, max_reset));
      }
      ++calls;
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "round " << round << " set " << index;
        return;
      }
    }
  }
  EXPECT_GE(calls, 1000);
}

// ---- analyze_resilience's nominal verdicts -------------------------------

/// The verdict a full analysis gives core `c` of `request`: the facade's
/// system verdict at the core's budget speed and request.lo_speed, and its
/// Delta_R within the dwell budget. `full` receives the report.
bool full_verdict(const multi::MultiRequest& request, std::size_t c,
                  Expected<AnalysisReport>& full) {
  std::vector<McTask> tasks;
  for (std::size_t g : request.assignment[c]) tasks.push_back(request.set[g]);
  const CoreBudget& budget = request.budgets[c];
  full = analyze({TaskSet(std::move(tasks)), budget.hi_speedup, request.lo_speed, {},
                  request.limits});
  return full && full->system_schedulable &&
         within_reset_budget(full->delta_r, budget.max_reset);
}

/// Core `c` of `request` as a fault-free one-core system: its tasks in
/// assignment order, its budget, the request's LO speed and limits.
multi::MultiRequest core_alone(const multi::MultiRequest& request, std::size_t c) {
  multi::MultiRequest alone;
  std::vector<McTask> tasks;
  alone.assignment.emplace_back();
  for (std::size_t g : request.assignment[c]) {
    alone.assignment[0].push_back(tasks.size());
    tasks.push_back(request.set[g]);
  }
  alone.set = TaskSet(std::move(tasks));
  alone.budgets = {request.budgets[c]};
  alone.lo_speed = request.lo_speed;
  alone.limits = request.limits;
  alone.tolerance = 0;
  return alone;
}

TEST(SpanPathTest, NominalVerdictsMatchFullAnalysis) {
  Rng rng(2405);
  // Hand-made cores beside the generated tasks: an unprepared HI task
  // (D(LO) = D(HI), C(HI) > C(LO): s_min = +inf) and a task with
  // U_HI = s_min = 1, whose Delta_R at speed 1 is +inf.
  const McTask infinite_s_min = McTask::hi("inf_s", 2, 3, 5, 5, 10);
  const McTask infinite_reset = McTask::hi("inf_r", 1, 10, 1, 10, 10);
  int systems = 0;
  int feasible = 0;
  int infeasible = 0;
  int inf_s_min = 0;
  int inf_reset = 0;
  int finite_budget = 0;
  int partitioned = 0;
  for (int i = 0; systems < 520; ++i) {
    ASSERT_LT(i, 5000) << "the generator yields too few systems";
    const std::size_t cores = 2 + static_cast<std::size_t>(i % 3);
    const bool grid = i % 2 == 0;
    std::vector<McTask> tasks;
    bool generated = true;
    for (std::size_t c = 0; c < cores && generated; ++c) {
      const std::optional<TaskSet> core_set =
          paper_set(rng, 0.3 + 0.05 * static_cast<double>(i % 4), grid, i % 7 == 0);
      if (!core_set) generated = false;
      else
        for (const McTask& t : *core_set) tasks.push_back(t);
    }
    if (!generated) continue;
    const int shape = i % 5;  // 0, 1: partition; 2: random; 3: +inf s_min; 4: +inf Delta_R
    if (shape == 3) tasks.push_back(infinite_s_min);
    if (shape == 4) tasks.push_back(infinite_reset);

    multi::MultiRequest request;
    request.set = TaskSet(std::move(tasks));
    request.tolerance = 0;
    if (i % 6 == 5) request.lo_speed = 0.9;
    switch (i % 4) {
      case 0: request.budgets.assign(cores, CoreBudget{}); break;  // s = 2, no dwell budget
      case 1:
        request.budgets.assign(
            cores, CoreBudget{1.5, static_cast<double>(rng.uniform_int(500, 20000))});
        break;
      default:  // heterogeneous, finite budgets on some cores
        for (std::size_t c = 0; c < cores; ++c)
          request.budgets.push_back(
              {1.0 + 0.25 * static_cast<double>(rng.uniform_int(0, 4)),
               rng.uniform_int(0, 1) == 0 ? kInf
                                          : static_cast<double>(rng.uniform_int(300, 30000))});
        break;
    }
    const std::size_t n = request.set.size();
    request.assignment.assign(cores, {});
    if (shape < 2) {
      PartitionOptions options;
      options.core_budgets = request.budgets;
      const PartitionResult partition = partition_first_fit(request.set, cores, options);
      if (partition.feasible) {
        request.assignment = partition.assignment;
        ++partitioned;
      } else {
        for (std::size_t g = 0; g < n; ++g) request.assignment[g % cores].push_back(g);
      }
    } else {
      // A random assignment; the hand-made task goes alone onto core 0, whose
      // budget then reads its s_min and Delta_R at speed 1.
      const std::size_t last = shape == 2 ? n : n - 1;
      for (std::size_t g = 0; g < last; ++g)
        request.assignment[static_cast<std::size_t>(
                               rng.uniform_int(shape == 2 ? 0 : 1,
                                               static_cast<std::int64_t>(cores) - 1))]
            .push_back(g);
      if (shape != 2) {
        request.assignment[0].push_back(n - 1);
        request.budgets[0] = {1.0, static_cast<double>(rng.uniform_int(50, 500))};
      }
    }
    ++systems;

    const Expected<multi::MultiReport> report = multi::analyze_resilience(request);
    ASSERT_TRUE(report.is_ok()) << "system " << i << ": " << report.error_message();
    std::size_t busy = 0;
    bool all = true;  // an empty core is feasible
    for (std::size_t c = 0; c < cores; ++c) {
      finite_budget += std::isfinite(request.budgets[c].max_reset) ? 1 : 0;
      if (request.assignment[c].empty()) continue;
      ++busy;
      Expected<AnalysisReport> full = Status::error("unset");
      const bool verdict = full_verdict(request, c, full);
      ASSERT_TRUE(full.is_ok());
      all = all && verdict;
      // The core's own nominal verdict: the core alone as a one-core system.
      const Expected<multi::MultiReport> alone = multi::analyze_resilience(core_alone(request, c));
      ASSERT_TRUE(alone.is_ok()) << "system " << i << " core " << c;
      EXPECT_EQ(alone->nominal_feasible, verdict) << "system " << i << " core " << c;
      EXPECT_EQ(alone->analyzer_calls, 1u) << "system " << i << " core " << c;
      (verdict ? feasible : infeasible) += 1;
      inf_s_min += std::isinf(full->s_min) ? 1 : 0;
      const bool reset_only = full->lo_schedulable && full->hi_schedulable;
      inf_reset += std::isinf(full->delta_r) && reset_only ? 1 : 0;
    }
    EXPECT_EQ(report->nominal_feasible, all) << "system " << i;
    // One decision question per core with tasks.
    EXPECT_EQ(report->analyzer_calls, busy) << "system " << i;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(partitioned, 100);
  EXPECT_GT(feasible, 300);
  EXPECT_GT(infeasible, 300);
  EXPECT_GT(inf_s_min, 50);
  EXPECT_GT(inf_reset, 50);
  EXPECT_GT(finite_budget, 300);
}

}  // namespace
}  // namespace rbs
