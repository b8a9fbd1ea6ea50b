// Discrete DVFS level selection and a simple boost-energy model.
//
// Real DVFS hardware exposes a menu of discrete frequency levels rather than
// a continuous speedup knob. Given a menu, this module picks the level to
// use in HI mode:
//
//   * min_feasible_level  -- the slowest level s with s >= s_min (Theorem 2,
//     judged by the facade's AnalysisReport::hi_schedulable_at): least
//     thermal stress per unit time;
//   * energy_optimal_level -- the level minimising the *energy of one boost
//     episode*, power(s) * Delta_R(s). Faster levels burn more power but
//     finish the backlog sooner (Corollary 5), so the optimum can be an
//     interior level; this is the real-time counterpart of the energy view
//     in the authors' companion paper [11].
//
// The default power model is the classic cubic CMOS scaling P(s) ~ s^3
// (voltage and frequency scale together); any per-level power can be given.
#pragma once

#include <initializer_list>
#include <vector>

#include "core/task.hpp"

namespace rbs {

struct FrequencyLevel {
  double speed = 1.0;  ///< speedup factor relative to nominal
  double power = 1.0;  ///< power draw at this level (arbitrary unit)
};

/// An ascending menu of frequency levels.
class FrequencyMenu {
 public:
  /// Builds a menu with the cubic power model P(s) = s^3.
  static FrequencyMenu cubic(std::initializer_list<double> speeds);

  explicit FrequencyMenu(std::vector<FrequencyLevel> levels);

  const std::vector<FrequencyLevel>& levels() const { return levels_; }
  bool empty() const { return levels_.empty(); }

 private:
  std::vector<FrequencyLevel> levels_;  // sorted by speed, ascending
};

struct LevelChoice {
  bool feasible = false;   ///< some level satisfies s >= s_min with finite reset
  FrequencyLevel level;    ///< the chosen level (when feasible)
  double delta_r = 0.0;    ///< boost length at that level (ticks)
  double boost_energy = 0.0;  ///< power * delta_r for one episode
};

/// Slowest menu level whose speed covers s_min and yields a finite reset.
LevelChoice min_feasible_level(const TaskSet& set, const FrequencyMenu& menu);

/// Feasible menu level minimising the boost-episode energy power * Delta_R.
LevelChoice energy_optimal_level(const TaskSet& set, const FrequencyMenu& menu);

}  // namespace rbs
