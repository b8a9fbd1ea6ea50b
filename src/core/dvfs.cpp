#include "core/dvfs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/reset.hpp"
#include "core/speedup.hpp"

namespace rbs {

FrequencyMenu FrequencyMenu::cubic(std::initializer_list<double> speeds) {
  std::vector<FrequencyLevel> levels;
  levels.reserve(speeds.size());
  for (double s : speeds) levels.push_back({s, s * s * s});
  return FrequencyMenu(std::move(levels));
}

FrequencyMenu::FrequencyMenu(std::vector<FrequencyLevel> levels) : levels_(std::move(levels)) {
  for (const FrequencyLevel& l : levels_)
    if (l.speed <= 0.0 || l.power < 0.0)
      throw std::invalid_argument("frequency levels need positive speed, non-negative power");
  std::sort(levels_.begin(), levels_.end(),
            [](const FrequencyLevel& a, const FrequencyLevel& b) { return a.speed < b.speed; });
}

namespace {

LevelChoice evaluate_level(const TaskSet& set, const AnalysisReport& nominal,
                           const FrequencyLevel& level) {
  LevelChoice choice;
  if (!nominal.hi_schedulable_at(level.speed)) return choice;
  const double delta_r = resetting_time_value(set, level.speed);
  if (!std::isfinite(delta_r)) return choice;
  choice.feasible = true;
  choice.level = level;
  choice.delta_r = delta_r;
  choice.boost_energy = level.power * delta_r;
  return choice;
}

}  // namespace

LevelChoice min_feasible_level(const TaskSet& set, const FrequencyMenu& menu) {
  const AnalysisReport nominal = speedup_report(set);
  for (const FrequencyLevel& level : menu.levels()) {
    const LevelChoice choice = evaluate_level(set, nominal, level);
    if (choice.feasible) return choice;
  }
  return {};
}

LevelChoice energy_optimal_level(const TaskSet& set, const FrequencyMenu& menu) {
  const AnalysisReport nominal = speedup_report(set);
  LevelChoice best;
  for (const FrequencyLevel& level : menu.levels()) {
    const LevelChoice choice = evaluate_level(set, nominal, level);
    if (!choice.feasible) continue;
    if (!best.feasible || choice.boost_energy < best.boost_energy) best = choice;
  }
  return best;
}

}  // namespace rbs
