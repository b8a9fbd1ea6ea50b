// The single tolerance policy for floating-point time, work and speed.
//
// Every boundary comparison in the analysis (DBF_HI vs s*Delta, Thm. 2's
// ratio supremum, Cor. 5's crossing, the simulator's event clock) happens on
// doubles whose exact values sit *on* breakpoints by construction: the paper's
// demand functions are piecewise linear with integer-tick knots, so "slack
// exactly zero" is a reachable, meaningful state -- not a rounding accident.
// Raw `==`/`<` on such quantities silently flips verdicts at breakpoints;
// scattering ad-hoc `1e-6`/`1e-9` literals instead makes every call site a
// distinct, unreviewable policy.
//
// This header is the one place epsilon literals are allowed (enforced by
// tools/rbs_lint, rule `epsilon-literal`). Everything else routes through a
// named `Tolerance` and the `approx_*`/`definitely_*` predicates below.
//
// A comparison `a ~ b` is "approximately equal" when
//     |a - b| <= max(tol.absolute, tol.relative * max(|a|, |b|)),
// the usual mixed absolute/relative test: the absolute term handles values
// near zero, the relative term keeps the test meaningful for large tick
// magnitudes (horizons run to 1e6+ ticks). NaN compares unequal to
// everything, so `definitely_lt(NaN, x)` and `approx_eq(NaN, x)` are false.
// Infinities compare exactly: +inf is approximately equal only to +inf, never
// to a finite value (the relative term alone would say inf - x <= rel * inf),
// so an s_min or Delta_R of +inf never passes `approx_le(inf, budget)`, while
// `approx_le(x, +inf)` holds for every non-NaN x.
#pragma once

#include <limits>

namespace rbs {

/// A named comparison slack: absolute floor plus relative scale.
struct Tolerance {
  double absolute;
  double relative;

  constexpr bool eq(double a, double b) const {
    const double diff = a > b ? a - b : b - a;
    if (!(diff <= std::numeric_limits<double>::max())) return a == b;  // an infinity
    const double mag_a = a < 0.0 ? -a : a;
    const double mag_b = b < 0.0 ? -b : b;
    const double mag = mag_a > mag_b ? mag_a : mag_b;
    return diff <= absolute || diff <= relative * mag;
  }
  constexpr bool le(double a, double b) const { return a <= b || eq(a, b); }
  constexpr bool lt(double a, double b) const { return a < b && !eq(a, b); }
  constexpr bool gt(double a, double b) const { return a > b && !eq(a, b); }
  constexpr bool zero(double a) const { return eq(a, 0.0); }
};

/// Time/work quantities (ticks). Tick magnitudes stay far below 2^40, so
/// doubles keep ~1e-4 tick precision at worst and 1e-6 absolute slack is
/// safely above rounding noise yet far below one tick.
inline constexpr Tolerance kTimeTol{1e-6, 1e-9};

/// Speed/utilization factors, O(1) magnitudes: purely relative rounding.
inline constexpr Tolerance kSpeedTol{1e-9, 1e-9};

/// Tie-breaking in optimizers (tuning, cache allocation, exhaustive search):
/// tight enough that only genuine rounding noise is absorbed, so "strictly
/// better" never flips on re-association.
inline constexpr Tolerance kStrictTol{1e-12, 1e-12};

/// Floor keeping sampled/scripted job demands strictly positive (a zero-work
/// job would complete at its release and degenerate the event loop).
inline constexpr double kMinPositiveWork = 1e-9;

/// Floor on the sampled overrun fraction in (C(LO), C(HI)]: an overrunning
/// job must demand strictly more than C(LO) or the trigger condition would
/// be unreachable at the simulator's work tolerance.
inline constexpr double kMinOverrunFraction = 1e-6;

/// Stopping tolerance of the degraded analysis preset
/// (AnalysisLimits::degraded()): coarse enough that the speedup search
/// settles in a handful of refinement steps under overload, while
/// `s_min_error_bound` still reports the residual honestly.
inline constexpr double kDegradedRelTol = 1e-4;

/// Grid the canonical task-set serialization (support/taskset_io.hpp) snaps
/// floating-point knobs onto, so two requests whose speeds differ only by
/// rounding noise (well inside kSpeedTol) hash to the same cache entry.
inline constexpr double kCanonicalGrid = 1e-9;

constexpr bool approx_eq(double a, double b, const Tolerance& tol = kTimeTol) {
  return tol.eq(a, b);
}
constexpr bool approx_le(double a, double b, const Tolerance& tol = kTimeTol) {
  return tol.le(a, b);
}
constexpr bool approx_zero(double a, const Tolerance& tol = kTimeTol) { return tol.zero(a); }
constexpr bool definitely_lt(double a, double b, const Tolerance& tol = kTimeTol) {
  return tol.lt(a, b);
}
constexpr bool definitely_gt(double a, double b, const Tolerance& tol = kTimeTol) {
  return tol.gt(a, b);
}

}  // namespace rbs
