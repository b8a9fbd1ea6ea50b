// LO-mode EDF schedulability: the classic processor-demand criterion.
//
// In LO mode all tasks run with their LO-mode parameters on a unit-speed
// processor, and the system is schedulable iff for every interval length
// Delta > 0:  sum_i DBF_LO(tau_i, Delta) <= speed * Delta   [5].
//
// The test is pseudo-polynomial: demand is checked only at the step points
// of the total demand function inside a finite window, the smaller of the
// utilization-based bound L_a and the LO-mode hyperperiod H (which bounds
// the synchronous busy period whenever U <= speed). lo_mode_test walks those
// step points forward and compares demand with supply exactly; it is the
// library's only LO-mode test. tests/core/reference_qpa.hpp keeps QPA, the
// backward iteration of Zhang & Burns, as the oracle it is checked against.
#pragma once

#include <cstddef>
#include <optional>

#include "core/analysis.hpp"
#include "core/task.hpp"

namespace rbs {

struct EdfTestOptions {
  /// Processor speed available in LO mode (1.0 in the paper).
  double speed = 1.0;
  /// Safety valve for pathological sets with utilization ~ speed.
  std::size_t max_breakpoints = kBreakpointBudget;
};

struct EdfTestResult {
  bool schedulable = false;
  /// True if the test ran to its exact stopping bound. When false (breakpoint
  /// budget exhausted), `schedulable` is conservatively false.
  bool conclusive = true;
  /// First interval length at which demand exceeded supply (if any).
  Ticks violation_delta = 0;
  std::size_t breakpoints_visited = 0;
};

/// The interval lengths a LO-mode processor-demand test at `speed` must
/// check (docs/ANALYSIS.md §1).
struct LoWindow {
  /// Set when the utilization decides alone: false when U > speed (no single
  /// witness interval), true for implicit deadlines with U <= speed.
  std::optional<bool> verdict;
  /// Otherwise every step point Delta <= last: min(L_a, H) when U is
  /// definitely below the speed; H when U equals it (compared exactly at the
  /// hyperperiod); and kInfTicks - 1, bounded only by the breakpoint budget,
  /// when U equals it but H or the demand over H overflows.
  Ticks last = 0;
};

/// The window of `set`'s LO-mode test at `speed`. H is folded task by task
/// and the fold stops as soon as it passes L_a.
[[nodiscard]] LoWindow lo_test_window(const TaskSet& set, double speed);

/// Full processor-demand test of the LO-mode parameters.
[[nodiscard]] EdfTestResult lo_mode_test(const TaskSet& set, const EdfTestOptions& options = {});

/// Convenience wrapper returning only the verdict.
[[nodiscard]] bool lo_mode_schedulable(const TaskSet& set, double speed = 1.0);

}  // namespace rbs
