// Test helper: generator sets with their periods re-drawn from a harmonic
// grid, so that the hyperperiod stays small. On kOracleGrid the exact oracle
// (exact_oracle.hpp) scans every interval length of such a set.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/closed_form.hpp"
#include "core/task.hpp"
#include "gen/rng.hpp"

namespace rbs {

/// Periods with lcm 1000 ticks. With LO service degraded to y = 2 the
/// HI-mode hyperperiod stays <= 2000, so the oracle scans every interval.
inline constexpr std::array<Ticks, 8> kOracleGrid = {20, 25, 40, 50, 100, 125, 250, 500};

/// `drawn` with every period re-drawn from `grid`, keeping each task's
/// utilization and C(HI)/C(LO) ratio up to rounding to whole ticks.
inline ImplicitSet snap_to_grid(const ImplicitSet& drawn, Rng& rng,
                                std::span<const Ticks> grid = kOracleGrid) {
  std::vector<ImplicitTask> tasks;
  for (const ImplicitTask& t : drawn.tasks()) {
    ImplicitTask snapped = t;
    snapped.period = grid[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(grid.size()) - 1))];
    snapped.c_lo = std::clamp<Ticks>(
        std::llround(t.u_lo() * static_cast<double>(snapped.period)), 1, snapped.period);
    const double gamma = static_cast<double>(t.c_hi) / static_cast<double>(t.c_lo);
    snapped.c_hi = t.criticality == Criticality::HI
                       ? std::clamp<Ticks>(std::llround(gamma * static_cast<double>(snapped.c_lo)),
                                           snapped.c_lo, snapped.period)
                       : snapped.c_lo;
    tasks.push_back(std::move(snapped));
  }
  return ImplicitSet(std::move(tasks));
}

}  // namespace rbs
