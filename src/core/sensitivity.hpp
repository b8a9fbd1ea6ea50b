// Sensitivity analysis: how much WCET pessimism a design tolerates before
// its speedup budget breaks.
//
// Fig. 5b sweeps the HI-WCET uncertainty gamma = C(HI)/C(LO); a designer's
// dual question is "given my hardware caps the speedup at s, how large may
// gamma grow?". The answer is monotone in gamma, so exact bisection applies
// on top of Theorem 2.
#pragma once

#include <optional>

#include "core/task.hpp"

namespace rbs {

/// Returns `set` with every HI task's C(HI) replaced by
/// clamp(round(gamma * C(LO)), C(LO), D(HI)); LO tasks unchanged.
/// gamma >= 1.
TaskSet scale_hi_wcets(const TaskSet& set, double gamma);

/// Bisection width on the scaling factor.
inline constexpr double kGammaResolution = 1e-3;
/// Search ceiling of the scaling factor.
inline constexpr double kMaxGamma = 64.0;

/// Largest gamma such that scale_hi_wcets(set, gamma) still satisfies
/// s_min <= s *and* stays LO-mode schedulable, to within kGammaResolution.
/// nullopt when even gamma = 1 fails. (C(HI) saturates at D(HI), so the
/// result can be kMaxGamma, meaning "insensitive beyond the ceiling".)
std::optional<double> max_tolerable_gamma(const TaskSet& set, double s);

}  // namespace rbs
