// Brute-force exact oracle for the analysis facade (test-only).
//
// Shares no code with the library's analysis: it does not include
// core/dbf.hpp, core/adb.hpp, core/breakpoints.hpp, core/analysis.hpp or any
// facade wrapper. The demand functions are transcribed from the paper
// (Eqs. 4-7 and 9-11, as restated in docs/ANALYSIS.md) and evaluated at
// *every* integer interval length instead of at a breakpoint stream, so a bug
// in the breakpoint families, the merger or the sweep's stopping rules shows
// up as a disagreement.
//
// Left limits. Every task parameter is an integer number of ticks, so every
// breakpoint of DBF_HI and ADB_HI is an integer and each function is linear
// on every open unit interval (k, k + 1). The left limit at k + 1 therefore
// follows from the midpoint, with no left-limit formula of its own:
//   f((k + 1)^-) = 2 f(k + 1/2) - f(k).
// The demand functions below take the interval length in half ticks
// (x = 2 * Delta) and return twice the demand, an integer at every half tick.
//
// Exactness. s_min is a maximum of rationals demand / Delta, kept as an exact
// fraction and compared by __int128 cross-multiplication. Delta_R is solved
// on each unit segment in long double. Intended for small sets: the scans
// run over the hyperperiod, which the callers keep at about 10^4 ticks.
//
// Transition latency. Both theorems also take the DVFS supply of
// docs/ANALYSIS.md §6, Delta + (Delta - L)^+ * (s - 1) for an integer latency
// L >= 0: nominal speed up to L, speed s after it. Every supply kink is then
// an integer too, so the unit-segment argument above carries over.
#pragma once

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/task.hpp"

namespace rbs::oracle {

__extension__ typedef __int128 Wide;  // products of two Ticks never overflow

/// An exact fraction num / den (den > 0).
struct Ratio {
  Ticks num = 0;
  Ticks den = 1;

  [[nodiscard]] double rounded() const {
    return static_cast<double>(num) / static_cast<double>(den);
  }
};

[[nodiscard]] inline bool operator<(const Ratio& a, const Ratio& b) {
  return static_cast<Wide>(a.num) * b.den < static_cast<Wide>(b.num) * a.den;
}

[[nodiscard]] inline bool same_value(const Ratio& a, const Ratio& b) {
  return !(a < b) && !(b < a);
}

/// floor(a / b) for b > 0 (built-in division truncates toward zero).
[[nodiscard]] inline Ticks floor_div(Ticks a, Ticks b) {
  const Ticks q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

// ---- demand (Eqs. 4-7, 9-11) -------------------------------------------------

/// Eq. (4): DBF_LO(tau, Delta) = max(floor((Delta - D(LO)) / T(LO)) + 1, 0) * C(LO).
[[nodiscard]] inline Ticks lo_demand(const McTask& task, Ticks delta) {
  const Ticks jobs =
      floor_div(delta - task.deadline(Mode::LO), task.period(Mode::LO)) + 1;
  return std::max<Ticks>(jobs, 0) * task.wcet(Mode::LO);
}

/// r(tau, w) of Eq. (6) at w = w2 / 2, doubled:
/// min(w, C(LO)) + C(HI) - C(LO) for w >= 0, else 0.
[[nodiscard]] inline Ticks residual_x2(const McTask& task, Ticks w2) {
  if (w2 < 0) return 0;
  const Ticks c_lo = task.wcet(Mode::LO);
  return std::min(w2, 2 * c_lo) + 2 * (task.wcet(Mode::HI) - c_lo);
}

/// Lemma 1 (Eqs. 5-7) at Delta = x / 2, doubled:
///   DBF_HI = r(w) + floor(Delta / T(HI)) * C(HI),
///   w = (Delta mod T(HI)) - (D(HI) - D(LO)).
/// Zero for a task terminated in HI mode (Eq. 3).
[[nodiscard]] inline Ticks hi_demand_x2(const McTask& task, Ticks x) {
  if (task.dropped_in_hi()) return 0;
  const Ticks period2 = 2 * task.period(Mode::HI);
  const Ticks windows = floor_div(x, period2);
  const Ticks w2 = (x - windows * period2) -
                   2 * (task.deadline(Mode::HI) - task.deadline(Mode::LO));
  return residual_x2(task, w2) + 2 * windows * task.wcet(Mode::HI);
}

/// Theorem 4 (Eqs. 9-11) at Delta = x / 2, doubled:
///   ADB_HI = r(w') + (floor(Delta / T(HI)) + 1) * C(HI),
///   w' = (Delta mod T(HI)) - (T(HI) - D(LO)).
/// A terminated task contributes its carry-over C(LO).
[[nodiscard]] inline Ticks arrived_demand_x2(const McTask& task, Ticks x) {
  if (task.dropped_in_hi()) return 2 * task.wcet(Mode::LO);
  const Ticks period = task.period(Mode::HI);
  const Ticks windows = floor_div(x, 2 * period);
  const Ticks w2 = (x - windows * 2 * period) - 2 * (period - task.deadline(Mode::LO));
  return residual_x2(task, w2) + 2 * (windows + 1) * task.wcet(Mode::HI);
}

/// Value and left limit of a total demand at an integer interval length.
struct Sample {
  Ticks value = 0;
  Ticks left = 0;  ///< lim_{eps -> 0+} of the demand at Delta - eps
};

/// Samples sum_i f(tau_i, .) at integer `delta` >= 1, where `twice(task, x)`
/// is 2 * f(task, x / 2).
template <class TwiceDemand>
[[nodiscard]] Sample sample(const TaskSet& set, Ticks delta, TwiceDemand twice) {
  Ticks at = 0, mid = 0, before = 0;
  for (const McTask& t : set) {
    at += twice(t, 2 * delta);
    mid += twice(t, 2 * delta - 1);
    before += twice(t, 2 * delta - 2);
  }
  return {at / 2, mid - before / 2};
}

[[nodiscard]] inline Sample hi_demand(const TaskSet& set, Ticks delta) {
  return sample(set, delta, [](const McTask& t, Ticks x) { return hi_demand_x2(t, x); });
}

[[nodiscard]] inline Sample arrived_demand(const TaskSet& set, Ticks delta) {
  return sample(set, delta, [](const McTask& t, Ticks x) { return arrived_demand_x2(t, x); });
}

// ---- utilizations and hyperperiods ------------------------------------------

/// lcm of the given mode's periods over the tasks that run in that mode.
[[nodiscard]] inline Ticks hyperperiod(const TaskSet& set, Mode mode) {
  Ticks h = 1;
  for (const McTask& t : set)
    if (mode == Mode::LO || !t.dropped_in_hi()) h = std::lcm(h, t.period(mode));
  return h;
}

/// Exact total utilization of `mode`, over the denominator `hyperperiod`.
[[nodiscard]] inline Ratio utilization(const TaskSet& set, Mode mode) {
  const Ticks h = oracle::hyperperiod(set, mode);
  Ratio u{0, h};
  for (const McTask& t : set)
    if (mode == Mode::LO || !t.dropped_in_hi())
      u.num += t.wcet(mode) * (h / t.period(mode));
  return u;
}

// ---- Theorem 2 ----------------------------------------------------------------

/// max(f(Delta) - L, f(Delta^-) - L) / (Delta - L) for f = DBF_HI, at integer
/// Delta > L: the least speed s whose supply L + s * (Delta - L) past the
/// transition latency L serves that demand (f / Delta at L = 0).
[[nodiscard]] inline Ratio ratio_at(const TaskSet& set, Ticks delta, Ticks latency = 0) {
  const Sample s = hi_demand(set, delta);
  return {std::max(s.value, s.left) - latency, delta - latency};
}

/// The largest ratio_at over every integer Delta in (L, up_to], value and
/// left limit alike.
[[nodiscard]] inline Ratio max_ratio(const TaskSet& set, Ticks up_to, Ticks latency = 0) {
  Ratio best;
  for (Ticks d = latency + 1; d <= up_to; ++d) best = std::max(best, ratio_at(set, d, latency));
  return best;
}

struct Speedup {
  /// Positive demand at Delta = 0, or demand above the nominal supply Delta
  /// at some Delta in [1, L]: no finite speed suffices.
  bool infinite = false;
  /// With `infinite`: the first such Delta (0, or a tick in [1, L]).
  Ticks infinite_at = 0;
  /// s_min = sup_Delta DBF_HI(Delta) / Delta (Eq. 8), exactly.
  Ratio s_min;
  /// The HI-mode utilization U_HI, the Delta -> inf limit of the ratio.
  Ratio u_hi;
  /// s_min > U_HI: the supremum is a maximum attained at a finite Delta.
  bool finite_argmax = false;
};

/// Theorem 2 by exhaustion, under transition latency `latency` (L). Up to L
/// only the nominal supply Delta serves, whatever the speed. Past L, the total
/// demand repeats every hyperperiod H, shifted by U_HI * H, so a ratio past
/// L + H is a mediant of one in (L, L + H] and U_HI: the supremum is the
/// larger of U_HI and the maximum over (L, L + H].
[[nodiscard]] inline Speedup exact_s_min(const TaskSet& set, Ticks latency = 0) {
  Speedup r;
  if (set.empty()) return r;
  r.u_hi = utilization(set, Mode::HI);
  Ticks at_zero = 0;
  for (const McTask& t : set) at_zero += hi_demand_x2(t, 0);
  if (at_zero > 0) {
    r.infinite = true;
    return r;
  }
  for (Ticks d = 1; d <= latency; ++d) {
    const Sample s = hi_demand(set, d);
    if (std::max(s.value, s.left) > d) {
      r.infinite = true;
      r.infinite_at = d;
      return r;
    }
  }
  const Ratio scanned = max_ratio(set, oracle::hyperperiod(set, Mode::HI) + latency, latency);
  r.finite_argmax = r.u_hi < scanned;
  r.s_min = r.finite_argmax ? scanned : r.u_hi;
  return r;
}

// ---- Corollary 5 --------------------------------------------------------------

/// Delta_R = min{Delta >= 0 : ADB_HI(Delta) <= supply(Delta)} (Eq. 12) for
/// the supply s * Delta, or Delta + (Delta - L)^+ * (s - 1) under transition
/// latency L (then s >= 1), scanning unit segments from 0: +inf when
/// s <= U_HI, NaN if `max_ticks` segments do not reach the crossing.
[[nodiscard]] inline double exact_delta_r(const TaskSet& set, double s, Ticks latency = 0,
                                           Ticks max_ticks = 10'000'000) {
  if (set.empty()) return 0.0;
  const Ratio u = utilization(set, Mode::HI);
  const long double speed = s;
  if (speed * static_cast<long double>(u.den) <= static_cast<long double>(u.num))
    return std::numeric_limits<double>::infinity();

  Ticks value = 0;  // ADB_HI(k), right-continuous
  for (const McTask& t : set) value += arrived_demand_x2(t, 0);
  value /= 2;
  for (Ticks k = 0; k < max_ticks; ++k) {
    const auto start = static_cast<long double>(k);
    // The supply is linear on [k, k + 1] as well: rate * Delta - offset,
    // with rate 1 and offset 0 before the kink L, and rate s and offset
    // (s - 1) * L from it on.
    const bool boosted = k >= latency;
    const long double rate = boosted ? speed : 1.0L;
    const long double offset =
        boosted ? (speed - 1.0L) * static_cast<long double>(latency) : 0.0L;
    if (static_cast<long double>(value) <= rate * start - offset) return static_cast<double>(k);
    // ADB is linear on (k, k + 1): value + slope * (Delta - k) = rate * Delta - offset.
    const Sample next = arrived_demand(set, k + 1);
    const auto slope = static_cast<long double>(next.left - value);
    if (rate > slope) {
      const long double crossing =
          (static_cast<long double>(value) - slope * start + offset) / (rate - slope);
      if (crossing < start + 1.0L) return static_cast<double>(crossing);
    }
    value = next.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// ---- LO mode --------------------------------------------------------------------

/// The processor-demand criterion at unit speed: U_LO <= 1 and
/// sum_i DBF_LO(Delta) <= Delta for every integer Delta in
/// (0, H_LO + max D(LO)] (DBF_LO is a step function with integer steps).
[[nodiscard]] inline bool lo_schedulable(const TaskSet& set) {
  const Ratio u = utilization(set, Mode::LO);
  if (u.num > u.den) return false;
  Ticks horizon = oracle::hyperperiod(set, Mode::LO);
  Ticks max_deadline = 0;
  for (const McTask& t : set) max_deadline = std::max(max_deadline, t.deadline(Mode::LO));
  horizon += max_deadline;
  for (Ticks d = 1; d <= horizon; ++d) {
    Ticks demand = 0;
    for (const McTask& t : set) demand += lo_demand(t, d);
    if (demand > d) return false;
  }
  return true;
}

}  // namespace rbs::oracle
