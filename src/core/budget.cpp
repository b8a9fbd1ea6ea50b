#include "core/budget.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "core/analysis.hpp"
#include "core/speedup.hpp"

namespace rbs {

TaskSet terminate_lo_tasks(const TaskSet& set) {
  std::vector<McTask> tasks;
  tasks.reserve(set.size());
  for (const McTask& t : set) {
    if (t.is_hi()) {
      tasks.push_back(t);
    } else {
      tasks.push_back(McTask::lo_terminated(t.name(), t.wcet(Mode::LO),
                                            t.deadline(Mode::LO), t.period(Mode::LO)));
    }
  }
  return TaskSet(std::move(tasks));
}

TurboReport check_turbo_envelope(const TaskSet& set, const TurboEnvelope& envelope) {
  TurboReport report;
  const AnalysisReport boost =
      Analyzer()
          .analyze(set, envelope.max_speedup, {.speedup = true, .reset = true, .lo = false})
          .value();
  report.s_min = boost.s_min;
  report.speed_ok = boost.hi_schedulable;
  report.delta_r = boost.delta_r;
  report.duration_ok = within_reset_budget(report.delta_r, envelope.max_boost_ticks);

  // Fallback: drop LO tasks and return to nominal speed. Safe when the
  // terminating variant needs no speedup at all.
  report.fallback_safe = hi_mode_schedulable(terminate_lo_tasks(set), 1.0);

  report.admissible = report.speed_ok && (report.duration_ok || report.fallback_safe);

  if (envelope.min_overrun_separation > 0.0 && std::isfinite(report.delta_r) &&
      report.delta_r <= envelope.min_overrun_separation) {
    report.duty_cycle = report.delta_r / envelope.min_overrun_separation;
  } else {
    report.duty_cycle = std::numeric_limits<double>::quiet_NaN();
  }
  return report;
}

}  // namespace rbs
