// Quick Processor-demand Analysis (QPA) for the LO-mode EDF test.
//
// Zhang & Burns, "Schedulability Analysis for Real-Time Systems with EDF
// Scheduling" (IEEE TC 2009): instead of checking the demand inequality
// sum DBF_LO(Delta) <= speed * Delta at every step point up to the bound L
// (the window min(L_a, H) of lo_test_window, core/edf.hpp, shared with the
// forward sweep), QPA iterates backwards from L --
//
//     t <- max{ d : d < L }                (d ranges over absolute step points)
//     while  h(t) <= t  and  h(t) > d_min:
//         t <- h(t)            if h(t) < t
//         t <- max{ d : d < t} otherwise
//     schedulable  iff  h(t) <= d_min
//
// where h(t) = sum DBF_LO(t) (scaled by 1/speed for a non-unit processor)
// and d_min is the smallest relative deadline. QPA typically converges in a
// handful of iterations where the forward sweep visits thousands of step
// points; bench_perf quantifies the gap and the test suite proves the two
// verdicts identical on randomized workloads.
#pragma once

#include "core/edf.hpp"
#include "core/task.hpp"

namespace rbs {

/// QPA verdict for LO mode at the given processor speed. Semantically
/// identical to lo_mode_test (both are exact); only the algorithm differs.
[[nodiscard]] EdfTestResult qpa_lo_test(const TaskSet& set, const EdfTestOptions& options = {});

/// Convenience wrapper returning only the verdict.
[[nodiscard]] bool qpa_lo_schedulable(const TaskSet& set, double speed = 1.0);

}  // namespace rbs
