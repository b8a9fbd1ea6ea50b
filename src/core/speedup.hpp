// Minimum HI-mode processor speedup (Section III, Theorem 2).
//
//   s_min = sup_{Delta >= 0}  ( sum_i DBF_HI(tau_i, Delta) ) / Delta     (8)
//
// The total HI-mode demand is piecewise linear with breakpoints on finitely
// many arithmetic sequences, and on each linear piece the ratio demand/Delta
// is monotone, so the supremum is attained at a breakpoint (evaluating both
// the right value and the left limit). The search stops exactly once the
// global envelope DBF_HI <= U_HI * Delta + K (K = sum of C_i(HI)) proves that
// no later interval can beat the best ratio found -- the "pseudo-polynomial
// time" argument the paper defers to its technical report.
//
// Special cases:
//   * demand at Delta = 0 positive (a HI task whose LO-mode deadline was not
//     shortened, see the discussion after Theorem 2)  =>  s_min = +inf;
//   * the supremum can be below 1: the system may *slow down* in HI mode when
//     service degradation sheds enough load (Example 1).
//
// The computation is the Theorem 2 part of the unified Analyzer facade
// (core/analysis.hpp): the witness (`s_min_argmax`), the exactness flag and
// the work counters are fields of its AnalysisReport. The one-shot helpers
// below are thin wrappers over it; prefer analyze() directly when more than
// one quantity of the same set is needed -- the facade computes them all in
// one fused breakpoint sweep.
#pragma once

#include "core/analysis.hpp"
#include "core/task.hpp"

namespace rbs {

/// The Theorem 2 part of the facade alone: s_min and the verdict at `s`.
[[nodiscard]] inline AnalysisReport speedup_report(const TaskSet& set, double s = 1.0) {
  return Analyzer().analyze(set, s, {.speedup = true, .reset = false, .lo = false}).value();
}

/// Convenience wrapper returning only the factor.
[[nodiscard]] inline double min_speedup_value(const TaskSet& set) {
  return speedup_report(set).s_min;
}

/// The facade's verdict: s >= s_min within kSpeedTol (hi_schedulable_at).
[[nodiscard]] inline bool hi_mode_schedulable(const TaskSet& set, double s) {
  return speedup_report(set, s).hi_schedulable;
}

/// Full mixed-criticality schedulability: LO mode schedulable at unit speed
/// and HI mode schedulable at speedup `s`.
[[nodiscard]] inline bool system_schedulable(const TaskSet& set, double s) {
  return Analyzer()
      .analyze(set, s, {.speedup = true, .reset = false, .lo = true})
      .value()
      .system_schedulable;
}

}  // namespace rbs
