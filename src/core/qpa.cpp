#include "core/qpa.hpp"

#include <cmath>

#include "core/dbf.hpp"
#include "support/rt_annotations.hpp"
#include "support/tolerance.hpp"

namespace rbs {

namespace {

// Largest absolute step point D_i + k*T_i strictly below t, or -1 if none.
long double max_step_below(const TaskSet& set, long double t) {
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

// Total LO-mode demand at real t (a step function with integer steps).
long double demand(const TaskSet& set, long double t) {
  if (t <= 0.0L) return 0.0L;
  return static_cast<long double>(dbf_lo_total(set, static_cast<Ticks>(std::floor(t))));
}

}  // namespace

// Hot: the whole backward iteration runs per analysis call with only stack
// arithmetic -- rbs_lint's rt pass holds it (and the dbf totals) to that.
RBS_HOT_PATH EdfTestResult qpa_lo_test(const TaskSet& set, const EdfTestOptions& options) {
  EdfTestResult result;
  // The same window as lo_mode_test (core/edf.cpp).
  const LoWindow window = lo_test_window(set, options.speed);
  if (window.verdict) {
    result.schedulable = *window.verdict;
    return result;
  }
  Ticks d_min_ticks = kInfTicks;
  for (const McTask& t : set) d_min_ticks = std::min(d_min_ticks, t.deadline(Mode::LO));

  const auto speed = static_cast<long double>(options.speed);
  const auto d_min = static_cast<long double>(d_min_ticks);

  // The largest step point in the window, Delta <= last.
  long double t = max_step_below(set, static_cast<long double>(window.last) + 1.0L);
  if (t < 0.0L) {
    result.schedulable = true;  // no step point inside the test window
    return result;
  }

  // Backward iteration; g(t) = h(t)/speed so the unit-speed algorithm applies.
  while (true) {
    if (++result.breakpoints_visited > options.max_breakpoints) {
      result.schedulable = false;
      result.conclusive = false;
      return result;
    }
    const long double g = demand(set, t) / speed;
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

bool qpa_lo_schedulable(const TaskSet& set, double speed) {
  EdfTestOptions options;
  options.speed = speed;
  return qpa_lo_test(set, options).schedulable;
}

}  // namespace rbs
