// A probe of the LO-mode demand table after the first allocates nothing:
// min_x_for_lo's bisection re-arms one table instead of building a task set,
// a merger or a vector per probe. Neither does a span analysis in warm
// storage (analyze_tasks, the multicore probes' path), and find_fallback's
// allocations do not grow with the tiers it visits. rbs_lint's rt pass lets
// growth calls through, so these counts are what show it. The binary
// replaces the global operator new to count allocations, so it holds these
// tests alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <set>
#include <vector>

#include "core/analysis.hpp"
#include "core/analysis_storage.hpp"
#include "core/edf.hpp"
#include "core/grid_sets.hpp"
#include "core/resilience.hpp"
#include "core/tuning.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rbs {
namespace {

constexpr std::array<Ticks, 8> kBenchGrid = {200, 250, 500, 1000, 2000, 2500, 5000, 10000};

/// Allocations made by min_x_for_lo's bisection on a table of `skeleton`
/// after its first probe.
std::size_t allocations_after_first_probe(const ImplicitSet& skeleton) {
  LoDemandTable table(skeleton);
  if (!table.test().schedulable) return 0;
  const std::size_t before = g_allocations.load();
  double lo = 0.0;
  double hi = 1.0;
  while (hi - lo > 1e-4) {
    const double mid = 0.5 * (lo + hi);
    table.prepare_hi_deadlines(mid);
    (table.test().schedulable ? hi : lo) = mid;
  }
  return g_allocations.load() - before;
}

TEST(LoDemandTableAllocTest, ProbesAfterTheFirstAllocateNothing) {
  Rng rng(2111);
  int sets = 0;
  for (int i = 0; i < 60; ++i) {
    GenParams params;
    params.u_bound = 0.5 + 0.1 * static_cast<double>(i % 5);
    const auto paper = generate_task_set(params, rng);
    if (paper) EXPECT_EQ(allocations_after_first_probe(*paper), 0u) << "paper set " << i;
    UUniFastParams uunifast;
    uunifast.n_tasks = 16 << (i % 3);
    const ImplicitSet grid = snap_to_grid(generate_uunifast_set(uunifast, rng), rng, kBenchGrid);
    EXPECT_EQ(allocations_after_first_probe(grid), 0u) << "grid set " << i;
    sets += paper ? 2 : 1;
  }
  EXPECT_GT(sets, 100);
}

TEST(LoDemandTableAllocTest, MinXAllocatesOnlyItsTable) {
  // The table's three vectors and the merger's two, however many probes.
  Rng rng(2112);
  UUniFastParams params;
  params.n_tasks = 32;
  const ImplicitSet grid = snap_to_grid(generate_uunifast_set(params, rng), rng, kBenchGrid);
  const std::size_t before = g_allocations.load();
  const MinXResult min_x = min_x_for_lo(grid);
  EXPECT_EQ(g_allocations.load() - before, 5u);
  EXPECT_TRUE(min_x.feasible);
}

/// Paper sets at U from 0.5 to 0.9, free and on the bench grid, and grid
/// UUniFast sets of 8 to 40 tasks: the shapes the multicore probes and the
/// campaigns analyse.
std::vector<TaskSet> analysis_sets(Rng& rng) {
  std::vector<TaskSet> sets;
  for (int i = 0; sets.size() < 80; ++i) {
    if (i % 3 == 2) {
      UUniFastParams uunifast;
      uunifast.n_tasks = 8 + 8 * (i % 5);
      const ImplicitSet grid = snap_to_grid(generate_uunifast_set(uunifast, rng), rng, kBenchGrid);
      const MinXResult min_x = min_x_for_lo(grid);
      if (min_x.feasible) sets.push_back(grid.materialize(min_x.x, 2.0));
      continue;
    }
    GenParams params;
    params.u_bound = 0.5 + 0.1 * static_cast<double>(i % 5);
    std::optional<ImplicitSet> paper = generate_task_set(params, rng);
    if (!paper) continue;
    if (i % 2 == 0) paper = snap_to_grid(*paper, rng, kBenchGrid);
    const MinXResult min_x = min_x_for_lo(*paper);
    if (min_x.feasible) sets.push_back(paper->materialize(min_x.x, 2.0));
  }
  return sets;
}

TEST(SpanAnalysisAllocTest, WarmStorageAllocatesNothing) {
  Rng rng(2411);
  const std::vector<TaskSet> sets = analysis_sets(rng);
  // Every question a probe or a one-shot call asks: the full analysis, the
  // LO test alone, Theorem 2 + Corollary 5 alone, and the decisions with and
  // without a dwell budget.
  std::vector<AnalysisRequest> requests(3);
  requests[0].speed = 2.0;
  requests[1].parts = {.speedup = false, .reset = false, .lo = true};
  requests[2].speed = 1.5;
  requests[2].parts = {.speedup = true, .reset = true, .lo = false};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto ask_all = [&](AnalysisStorage& storage, const TaskSet& set) {
    for (const AnalysisRequest& request : requests) {
      EXPECT_TRUE(analyze_tasks(set, request, storage).is_ok());
      EXPECT_TRUE(analyze_tasks(set, request, storage, kInf).is_ok());
      EXPECT_TRUE(analyze_tasks(set, request, storage, 2000.0).is_ok());
    }
  };
  AnalysisStorage storage;
  for (const TaskSet& set : sets) ask_all(storage, set);  // warm: every set held once
  for (std::size_t k = sets.size(); k-- > 0;) {
    const std::size_t before = g_allocations.load();
    ask_all(storage, sets[k]);
    EXPECT_EQ(g_allocations.load() - before, 0u) << "set " << k << " (" << sets[k].size()
                                                 << " tasks)";
  }
}

TEST(SpanAnalysisAllocTest, FallbackAllocationsDoNotGrowWithTiers) {
  Rng rng(2412);
  const std::vector<TaskSet> sets = analysis_sets(rng);
  AnalysisStorage storage;
  std::vector<McTask> tasks;
  std::set<std::size_t> tiers_visited;
  for (int pass = 0; pass < 2; ++pass) {  // the first pass warms the storage
    for (const TaskSet& set : sets) {
      const auto hi_tasks = static_cast<std::size_t>(
          std::count_if(set.begin(), set.end(), [](const McTask& t) { return t.is_hi(); }));
      if (hi_tasks == set.size()) continue;  // no tier past 0
      std::set<std::size_t> set_tiers;
      std::set<std::size_t> set_allocations;
      for (const double speed : {2.0, 1.2, 1.0, 0.8, 0.6}) {
        tasks.assign(set.begin(), set.end());
        const std::size_t before = g_allocations.load();
        const FallbackFit fit = find_fallback(tasks, speed, 5000.0, {}, storage);
        set_allocations.insert(g_allocations.load() - before);
        set_tiers.insert(fit.feasible ? fit.fallback.tier() + 1
                                      : set.size() - hi_tasks + 1);
      }
      if (pass == 0) continue;
      // The sacrifice order and the tier list, once each, however many
      // tiers a call visits; the order's sort takes no buffer.
      EXPECT_EQ(set_allocations.size(), 1u) << set_tiers.size() << " tier counts";
      EXPECT_EQ(*set_allocations.rbegin(), 2u);
      tiers_visited.insert(set_tiers.begin(), set_tiers.end());
    }
  }
  EXPECT_GE(tiers_visited.size(), 4u);
  EXPECT_GE(*tiers_visited.rbegin(), 4u);
}

}  // namespace
}  // namespace rbs
