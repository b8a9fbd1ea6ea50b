// A probe of the LO-mode demand table after the first allocates nothing:
// min_x_for_lo's bisection re-arms one table instead of building a task set,
// a merger or a vector per probe. The binary replaces the global operator
// new to count allocations, so it holds these tests alone.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/edf.hpp"
#include "core/grid_sets.hpp"
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

}  // namespace
}  // namespace rbs
