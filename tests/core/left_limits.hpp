// Test helper: left limits of DBF_HI (Lemma 1) and ADB_HI (Theorem 4),
// evaluated per task from the closed forms. The walks never need them --
// their running demand yields each left limit as value + slope * gap
// (core/breakpoints.hpp) -- so they are the reference the tests check those
// running left limits, and the supremum arguments, against.
#pragma once

#include <algorithm>
#include <cassert>

#include "core/task.hpp"

namespace rbs {

namespace left_limits_detail {

/// r(tau_i, delta, w) of Eq. (6) for w > 0.
inline Ticks residual_demand(const McTask& task, Ticks w) {
  const Ticks c_lo = task.wcet(Mode::LO);
  return std::min(w, c_lo) + (task.wcet(Mode::HI) - c_lo);
}

/// The left limit of a carry-over ramp family (offset `gap` in the window,
/// `windows` extra C(HI) per whole window) at delta >= 1: approached from
/// inside the previous window when delta is a window start, and from the
/// w <= 0 side, where r == 0, at the ramp start.
inline Ticks ramp_family_left(const McTask& task, Ticks delta, Ticks gap, Ticks extra_windows) {
  const Ticks t = task.period(Mode::HI);
  Ticks q = delta / t;
  Ticks rho = delta % t;
  if (rho == 0) {
    --q;
    rho = t;
  }
  const Ticks w = rho - gap;
  const Ticks r = w <= 0 ? 0 : residual_demand(task, w);
  return r + (q + extra_windows) * task.wcet(Mode::HI);
}

}  // namespace left_limits_detail

/// lim_{eps->0+} dbf_hi(task, delta - eps), for delta >= 1.
inline Ticks dbf_hi_left(const McTask& task, Ticks delta) {
  assert(delta >= 1 && delta < kInfTicks);
  if (task.dropped_in_hi()) return 0;
  return left_limits_detail::ramp_family_left(task, delta, task.deadline_extension(), 0);
}

/// lim_{eps->0+} adb_hi(task, delta - eps), for delta >= 1.
inline Ticks adb_hi_left(const McTask& task, Ticks delta,
                         bool discard_dropped_carryover = false) {
  assert(delta >= 1 && delta < kInfTicks);
  if (task.dropped_in_hi()) return discard_dropped_carryover ? 0 : task.wcet(Mode::LO);
  const Ticks gap = task.period(Mode::HI) - task.deadline(Mode::LO);  // T(HI) - D(LO), Eq. (9)
  return left_limits_detail::ramp_family_left(task, delta, gap, 1);
}

/// Sum of adb_hi_left over the whole set.
inline Ticks adb_hi_total_left(const TaskSet& set, Ticks delta,
                               bool discard_dropped_carryover = false) {
  Ticks sum = 0;
  for (const McTask& t : set) sum += adb_hi_left(t, delta, discard_dropped_carryover);
  return sum;
}

}  // namespace rbs
