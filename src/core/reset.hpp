// Service resetting time under processor speedup (Section IV, Corollary 5).
//
//   Delta_R = min{ Delta >= 0 : sum_i ADB_HI(tau_i, Delta) <= s * Delta }  (12)
//
// i.e. the first instant after the mode switch by which, at speed s, the
// processor must have caught up with every demand that can have arrived --
// the worst-case time until the first idle instant, at which the runtime
// safely switches back to LO mode and nominal speed.
//
// The total arrived demand is piecewise linear and non-decreasing, so the
// solver walks its breakpoints and solves the crossing with the supply line
// s * Delta exactly on each linear segment. The result is finite iff
// s > U_HI (the HI-mode utilization); otherwise +inf is returned.
//
// The computation is the Corollary 5 part of the unified Analyzer facade
// (core/analysis.hpp); `AnalysisLimits::discard_dropped_carryover` models a
// runtime that aborts the carry-over job of a terminated LO task at the
// mode switch (ablation; the paper's Eq. 10 corresponds to false).
#pragma once

#include "core/analysis.hpp"
#include "core/task.hpp"

namespace rbs {

/// Convenience wrapper returning only the bound (ticks) for speedup `s`
/// (> 0). Prefer analyze() when s_min or the verdicts of the same set are
/// also needed -- the facade computes everything in one fused breakpoint
/// sweep.
[[nodiscard]] inline double resetting_time_value(const TaskSet& set, double s) {
  return Analyzer()
      .analyze(set, s, {.speedup = false, .reset = true, .lo = false})
      .value()
      .delta_r;
}

}  // namespace rbs
