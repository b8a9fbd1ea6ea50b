// Quick Processor-demand Analysis (QPA) for the LO-mode EDF test, kept as a
// test oracle. Production code has one LO-mode test, the forward walk
// lo_mode_test (core/edf.hpp); the differential tests (qpa_test.cpp and
// LoWindowTest in fits_test.cpp) require this second algorithm to give the
// same verdicts on small sets.
//
// Zhang & Burns, "Schedulability Analysis for Real-Time Systems with EDF
// Scheduling" (IEEE TC 2009): instead of checking the demand inequality
// sum DBF_LO(Delta) <= Delta at every step point up to the bound L
// (the window min(L_a, H) of LoDemandTable::window, shared with the forward
// walk), QPA iterates backwards from L --
//
//     t <- max{ d : d < L }                (d ranges over absolute step points)
//     while  h(t) <= t  and  h(t) > d_min:
//         t <- h(t)            if h(t) < t
//         t <- max{ d : d < t} otherwise
//     schedulable  iff  h(t) <= d_min
//
// where h(t) = sum DBF_LO(t) and d_min is the smallest relative deadline.
//
// Overflow: the iteration starts at the top of the window, which can be
// kInfTicks - 1. The demand sum is taken in 128 bits (each task's term, at
// most Delta + C, fits in Ticks), so it stays exact whatever the set's
// demand there, without the forward walk's argument that U <= 1 bounds it.
// Keep it free of the forward walk's breakpoint merger and running demand:
// its value as an oracle is that the two share only the window.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/dbf.hpp"
#include "core/edf.hpp"
#include "core/task.hpp"

namespace rbs::reference {

namespace qpa_detail {

// Largest absolute step point D_i + k*T_i strictly below t, or -1 if none.
inline long double max_step_below(const TaskSet& set, long double t) {
  long double best = -1.0L;
  for (const McTask& task : set) {
    const auto d = static_cast<long double>(task.deadline(Mode::LO));
    const auto period = static_cast<long double>(task.period(Mode::LO));
    if (t <= d) continue;
    auto k = std::floor((t - d) / period);
    if (d + k * period >= t) k -= 1.0L;  // guard against rounding up to t
    if (k < 0.0L) continue;
    best = std::max(best, d + k * period);
  }
  return best;
}

// Total LO-mode demand at real t (a step function with integer steps),
// summed in 128 bits.
inline long double demand(const TaskSet& set, long double t) {
  if (t <= 0.0L) return 0.0L;
  const auto delta = static_cast<Ticks>(std::floor(t));
  __extension__ __int128 sum = 0;
  for (const McTask& task : set) sum += dbf_lo(task, delta);
  return static_cast<long double>(sum);
}

}  // namespace qpa_detail

/// QPA verdict for LO mode, inconclusive past `max_breakpoints` iterations.
/// Semantically identical to lo_mode_test (both are exact); only the
/// algorithm differs.
inline EdfTestResult qpa_lo_test(const TaskSet& set,
                                 std::size_t max_breakpoints = kBreakpointBudget) {
  using qpa_detail::demand;
  using qpa_detail::max_step_below;
  EdfTestResult result;
  // The same window as lo_mode_test.
  const LoWindow window = LoDemandTable(set).window();
  if (window.verdict) {
    result.schedulable = *window.verdict;
    return result;
  }
  Ticks d_min_ticks = kInfTicks;
  for (const McTask& t : set) d_min_ticks = std::min(d_min_ticks, t.deadline(Mode::LO));

  const auto d_min = static_cast<long double>(d_min_ticks);

  // The largest step point in the window, Delta <= last.
  long double t = max_step_below(set, static_cast<long double>(window.last) + 1.0L);
  if (t < 0.0L) {
    result.schedulable = true;  // no step point inside the test window
    return result;
  }

  // Backward iteration.
  while (true) {
    if (++result.breakpoints_visited > max_breakpoints) {
      result.schedulable = false;
      result.conclusive = false;
      return result;
    }
    const long double g = demand(set, t);
    if (g > t) {
      result.schedulable = false;
      result.violation_delta = static_cast<Ticks>(std::floor(t));
      return result;
    }
    if (g <= d_min) {
      result.schedulable = true;
      return result;
    }
    if (g < t) {
      t = g;
    } else {  // g == t: hop to the previous step point
      t = max_step_below(set, t);
      if (t < d_min) {
        result.schedulable = true;
        return result;
      }
    }
  }
}

/// Convenience wrapper returning only the verdict.
inline bool qpa_lo_schedulable(const TaskSet& set) { return qpa_lo_test(set).schedulable; }

}  // namespace rbs::reference
