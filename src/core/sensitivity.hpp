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

struct SensitivityOptions {
  double resolution = 1e-3;  ///< bisection width on the scaling factor
  double max_factor = 64.0;  ///< search ceiling
};

/// Largest gamma such that scale_hi_wcets(set, gamma) still satisfies
/// s_min <= s *and* stays LO-mode schedulable. nullopt when even gamma = 1
/// fails. (C(HI) saturates at D(HI), so the result can be max_factor,
/// meaning "insensitive beyond the ceiling".)
std::optional<double> max_tolerable_gamma(const TaskSet& set, double s,
                                          const SensitivityOptions& options = {});

}  // namespace rbs
