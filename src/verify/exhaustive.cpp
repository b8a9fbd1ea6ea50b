#include "verify/exhaustive.hpp"

#include <cmath>
#include <functional>

#include "sim/simulate.hpp"
#include "support/tolerance.hpp"

namespace rbs {

namespace {

using Script = std::vector<sim::SimConfig::ScriptedJob>;

// All per-task scripts: first release on the grid, then sporadic gaps of
// T + extra, each HI job independently behaving or fully overrunning.
std::vector<Script> task_scripts(const McTask& task, const ExploreOptions& options) {
  const auto t = static_cast<double>(task.period(Mode::LO));
  const auto c_lo = static_cast<double>(task.wcet(Mode::LO));
  const auto c_hi = static_cast<double>(task.wcet(Mode::HI));
  const bool can_overrun = task.is_hi() && task.wcet(Mode::HI) > task.wcet(Mode::LO);

  // Memory guard: per-task script counts grow exponentially with the number
  // of jobs in the horizon; beyond this the exploration is truncated (the
  // overall pattern budget reports it).
  constexpr std::size_t kMaxScriptsPerTask = 100'000;

  std::vector<Script> scripts;
  Script current;
  // Extends `current` with all job sequences starting at or after `release`.
  const std::function<void(double)> extend = [&](double release) {
    if (scripts.size() >= kMaxScriptsPerTask) return;
    if (release > options.horizon) {
      scripts.push_back(current);
      return;
    }
    for (int demand_choice = 0; demand_choice < (can_overrun ? 2 : 1); ++demand_choice) {
      current.push_back({release, demand_choice == 0 ? c_lo : c_hi});
      for (Ticks extra : options.gap_extras) extend(release + t + static_cast<double>(extra));
      current.pop_back();
    }
  };
  for (Ticks first = 0; first <= options.first_release_max; ++first)
    extend(static_cast<double>(first));
  return scripts;
}

struct Explorer {
  const TaskSet& set;
  const ExploreOptions& options;
  double speed;
  bool stop_on_first_miss;

  std::vector<std::vector<Script>> per_task;
  std::vector<const Script*> chosen;
  ExploreResult result;
  sim::Simulator simulator;  ///< one warm kernel for every enumerated pattern

  bool run_leaf() {
    sim::SimConfig cfg;
    cfg.horizon = options.horizon;
    cfg.hi_speed = speed;
    cfg.scripted_arrivals.reserve(chosen.size());
    for (const Script* s : chosen) cfg.scripted_arrivals.push_back(*s);
    const bool missed = simulator.run(set, cfg).value().metrics.deadline_missed();
    ++result.patterns_tested;
    if (missed) {
      ++result.patterns_missed;
      if (result.witness.empty()) {
        for (const Script* s : chosen) result.witness.push_back(*s);
      }
      if (stop_on_first_miss) return false;
    }
    return result.patterns_tested < options.max_patterns;
  }

  // Depth-first product over per-task scripts; returns false to abort.
  bool descend(std::size_t task) {
    if (task == per_task.size()) return run_leaf();
    for (const Script& s : per_task[task]) {
      chosen[task] = &s;
      if (!descend(task + 1)) return false;
    }
    return true;
  }

  ExploreResult explore() {
    per_task.reserve(set.size());
    for (const McTask& t : set) per_task.push_back(task_scripts(t, options));
    chosen.assign(set.size(), nullptr);
    result.budget_exhausted = !descend(0) && !stop_on_first_miss &&
                              result.patterns_tested >= options.max_patterns;
    return std::move(result);
  }
};

}  // namespace

ExploreResult explore_patterns(const TaskSet& set, double s, const ExploreOptions& options) {
  Explorer explorer{set, options, s, /*stop_on_first_miss=*/false, {}, {}, {}, {}};
  return explorer.explore();
}

double exhaustive_speedup_lower_bound(const TaskSet& set, double ceiling, double step,
                                      const ExploreOptions& options) {
  double best = 0.0;
  for (double s = step; approx_le(s, ceiling, kStrictTol); s += step) {
    Explorer explorer{set, options, s, /*stop_on_first_miss=*/true, {}, {}, {}, {}};
    const ExploreResult r = explorer.explore();
    if (r.patterns_missed > 0)
      best = s;  // a miss at speed s: anything <= s is insufficient
  }
  return best;
}

}  // namespace rbs
