// LO-mode EDF schedulability: the classic processor-demand criterion.
//
// In LO mode all tasks run with their LO-mode parameters on a unit-speed
// processor, and the system is schedulable iff for every interval length
// Delta > 0:  sum_i DBF_LO(tau_i, Delta) <= speed * Delta   [5].
//
// The test is pseudo-polynomial: demand is checked only at the (finitely
// many, thanks to the utilization-based bound) step points of the total
// demand function.
#pragma once

#include <cstddef>

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

/// Full processor-demand test of the LO-mode parameters.
[[nodiscard]] EdfTestResult lo_mode_test(const TaskSet& set, const EdfTestOptions& options = {});

/// Convenience wrapper returning only the verdict.
[[nodiscard]] bool lo_mode_schedulable(const TaskSet& set, double speed = 1.0);

}  // namespace rbs
