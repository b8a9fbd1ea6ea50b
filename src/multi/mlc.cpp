#include "multi/mlc.hpp"

#include <stdexcept>

#include "core/analysis.hpp"
#include "core/edf.hpp"

namespace rbs {

namespace {

void validate_task(const MlcTask& t, int num_levels) {
  auto fail = [&](const std::string& what) {
    throw std::invalid_argument("MLC task " + t.name + ": " + what);
  };
  if (t.criticality < 0 || t.criticality >= num_levels) fail("criticality out of range");
  if (static_cast<int>(t.levels.size()) != num_levels)
    fail("needs exactly one parameter triple per level");

  for (int m = 0; m < num_levels; ++m) {
    const ModeParams& p = t.levels[static_cast<std::size_t>(m)];
    const bool alive = !is_inf(p.period);
    if (!alive) {
      if (m <= t.criticality) fail("cannot be terminated at or below its criticality");
      if (!is_inf(p.deadline)) fail("termination requires both T and D infinite");
      continue;
    }
    if (p.wcet < 1 || p.deadline < 1 || p.period < 1) fail("parameters must be >= 1 tick");
    if (p.deadline > p.period) fail("constrained deadlines required (D <= T)");
    if (p.wcet > p.deadline) fail("C must fit D at every level");
    if (m == 0) continue;

    const ModeParams& prev = t.levels[static_cast<std::size_t>(m) - 1];
    if (is_inf(prev.period)) fail("a terminated task cannot come back alive");
    if (m <= t.criticality) {
      // Full service: same period, extending virtual deadlines, growing WCET.
      if (p.period != prev.period) fail("period must not change at or below criticality");
      if (p.deadline < prev.deadline) fail("virtual deadlines must extend with the mode");
      if (p.wcet < prev.wcet) fail("WCETs must be non-decreasing up to the criticality");
    } else {
      // Degraded service: frozen WCET, stretched period/deadline.
      if (p.wcet != prev.wcet) fail("WCET must freeze above the criticality");
      if (p.period < prev.period) fail("degradation must not shorten the period");
      if (p.deadline < prev.deadline) fail("degradation must not shorten the deadline");
    }
  }
}

}  // namespace

MlcSystem::MlcSystem(int num_levels, std::vector<MlcTask> tasks)
    : num_levels_(num_levels), tasks_(std::move(tasks)) {
  if (num_levels_ < 2) throw std::invalid_argument("an MLC system needs at least 2 levels");
  for (const MlcTask& t : tasks_) validate_task(t, num_levels_);
}

TaskSet MlcSystem::projection(int k) const {
  if (k < 1 || k >= num_levels_)
    throw std::invalid_argument("transition index must be in [1, K-1]");
  std::vector<McTask> out;
  out.reserve(tasks_.size());
  for (const MlcTask& t : tasks_) {
    const ModeParams& lo = t.levels[static_cast<std::size_t>(k) - 1];
    const ModeParams& hi = t.levels[static_cast<std::size_t>(k)];
    if (is_inf(lo.period)) continue;  // terminated before this transition
    if (t.criticality >= k) {
      out.push_back(McTask::hi(t.name, lo.wcet, hi.wcet, lo.deadline, hi.deadline,
                               lo.period));
    } else if (is_inf(hi.period)) {
      out.push_back(McTask::lo_terminated(t.name, lo.wcet, lo.deadline, lo.period));
    } else {
      out.push_back(
          McTask::lo(t.name, lo.wcet, lo.deadline, lo.period, hi.deadline, hi.period));
    }
  }
  return TaskSet(std::move(out));
}

MlcAnalysis analyze_mlc(const MlcSystem& system, const std::vector<double>& speeds) {
  if (static_cast<int>(speeds.size()) != system.num_levels() - 1)
    throw std::invalid_argument("need one speed per transition (K-1)");
  MlcAnalysis result;
  result.mode0_schedulable = lo_mode_schedulable(system.projection(1));
  result.schedulable = result.mode0_schedulable;
  for (int k = 1; k < system.num_levels(); ++k) {
    const AnalysisReport level =
        Analyzer()
            .analyze(system.projection(k), speeds[static_cast<std::size_t>(k) - 1],
                     {.speedup = true, .reset = true, .lo = false})
            .value();
    result.level_speedups.push_back(level.s_min);
    result.reset_times.push_back(level.delta_r);
    result.schedulable = result.schedulable && level.hi_schedulable;
  }
  return result;
}

}  // namespace rbs
