#include "core/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "core/analysis.hpp"
#include "core/analysis_storage.hpp"
#include "core/speedup.hpp"

namespace rbs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Non-dropped LO tasks in sacrifice order: decreasing HI-mode utilization
/// (most demand relief per termination first), ties by index.
std::vector<std::size_t> sacrifice_order(std::span<const McTask> tasks) {
  std::vector<std::size_t> order;
  order.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (!tasks[i].is_hi() && !tasks[i].dropped_in_hi()) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].utilization(Mode::HI) > tasks[b].utilization(Mode::HI);
  });
  return order;
}

/// Delta_R of `set` at `speed` under `limits`. Should the facade reject the
/// request, +inf is the conservative answer.
double reset_time(const TaskSet& set, double speed, const AnalysisLimits& limits) {
  const Expected<AnalysisReport> report =
      Analyzer(limits).analyze(set, speed, {.speedup = false, .reset = true, .lo = false});
  return report ? report->delta_r : kInf;
}

/// Theorem 2's s_min under `limits`; +inf should the facade reject the request.
double s_min_of(const TaskSet& set, const AnalysisLimits& limits) {
  const Expected<AnalysisReport> report =
      Analyzer(limits).analyze(set, 1.0, {.speedup = true, .reset = false, .lo = false});
  return report ? report->s_min : kInf;
}

McTask rebuild(const McTask& t) {
  if (t.is_hi())
    return McTask::hi(t.name(), t.wcet(Mode::LO), t.wcet(Mode::HI), t.deadline(Mode::LO),
                      t.deadline(Mode::HI), t.period(Mode::LO));
  return McTask::lo(t.name(), t.wcet(Mode::LO), t.deadline(Mode::LO), t.period(Mode::LO),
                    t.deadline(Mode::HI), t.period(Mode::HI));
}

}  // namespace

Expected<TaskSet> apply_termination(const TaskSet& set,
                                    const std::vector<std::size_t>& lo_indices) {
  std::vector<bool> terminate(set.size(), false);
  for (std::size_t i : lo_indices) {
    if (i >= set.size())
      return Status::error("apply_termination: index " + std::to_string(i) + " out of range");
    if (set[i].is_hi())
      return Status::error("apply_termination: task " + set[i].name() +
                           " is HI-criticality and cannot be terminated");
    if (terminate[i])
      return Status::error("apply_termination: duplicate index " + std::to_string(i));
    terminate[i] = true;
  }
  std::vector<McTask> tasks;
  tasks.reserve(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (terminate[i])
      tasks.push_back(McTask::lo_terminated(set[i].name(), set[i].wcet(Mode::LO),
                                            set[i].deadline(Mode::LO), set[i].period(Mode::LO)));
    else
      tasks.push_back(rebuild(set[i]));
  }
  return TaskSet::create(std::move(tasks));
}

FallbackFit find_fallback(const TaskSet& set, double speed, double max_reset,
                          const AnalysisLimits& limits) {
  std::vector<McTask> tasks = set.tasks();
  AnalysisStorage storage;
  return find_fallback(tasks, speed, max_reset, limits, storage);
}

FallbackFit find_fallback(std::span<McTask> tasks, double speed, double max_reset,
                          const AnalysisLimits& limits, AnalysisStorage& storage) {
  FallbackFit fit;
  AnalysisRequest request;
  request.speed = speed;
  request.parts = {.speedup = true, .reset = true, .lo = false};
  request.limits = limits;
  const std::vector<std::size_t> order = sacrifice_order(tasks);
  std::vector<std::size_t> terminated;
  terminated.reserve(order.size());
  for (std::size_t tier = 0; tier <= order.size(); ++tier) {
    if (tier > 0) {
      // Eq. 3 in place: the live LO task becomes the one
      // McTask::lo_terminated builds from its LO-mode parameters.
      terminated.push_back(order[tier - 1]);
      tasks[terminated.back()].set_hi_service(kInfTicks, kInfTicks);
    }
    const Expected<AnalysisReport> report = analyze_tasks(tasks, request, storage, max_reset);
    if (report && report->hi_schedulable) {
      fit.feasible = true;
      fit.fallback.terminated = std::move(terminated);
      fit.within_budget = within_reset_budget(report->delta_r, max_reset);
      break;
    }
  }
  return fit;
}

DegradedGuarantee analyze_degraded(const TaskSet& set, double achieved_speed,
                                   const AnalysisLimits& limits) {
  DegradedGuarantee g;
  g.achieved_speed = achieved_speed;
  g.nominal_s_min = s_min_of(set, limits);
  g.s_min_with_fallback = g.nominal_s_min;
  g.delta_r = kInf;

  const FallbackFit fit = find_fallback(set, achieved_speed, kInf, limits);
  g.schedulable_unmodified = fit.feasible && fit.fallback.tier() == 0;
  // Running the unmodified set at s' < s_min voids Theorem 2 in HI mode.
  g.hi_mode_misses_licensed = !g.schedulable_unmodified;
  if (!fit.feasible) return g;  // even full termination cannot absorb s'

  g.feasible = true;
  g.fallback = fit.fallback;
  if (g.schedulable_unmodified) {
    g.delta_r = reset_time(set, achieved_speed, limits);
    return g;
  }
  const Expected<TaskSet> reduced = apply_termination(set, fit.fallback.terminated);
  if (!reduced) return g;  // cannot happen: the search built this tier
  g.s_min_with_fallback = s_min_of(reduced.value(), limits);
  g.delta_r = reset_time(reduced.value(), achieved_speed, limits);
  return g;
}

BoostFaultMargin boost_fault_margin(const TaskSet& set) {
  BoostFaultMargin m;
  m.s_min = min_speedup_value(set);
  m.max_fallback.terminated = sacrifice_order(set);
  const Expected<TaskSet> reduced = apply_termination(set, m.max_fallback.terminated);
  m.margin = reduced ? min_speedup_value(reduced.value()) : m.s_min;
  return m;
}

Expected<TaskSet> inflate_detection_delay(const TaskSet& set, Ticks delta) {
  if (delta < 0) return Status::error("inflate_detection_delay: delta must be >= 0");
  std::vector<McTask> tasks;
  tasks.reserve(set.size());
  for (const McTask& t : set) {
    if (!t.is_hi()) {
      tasks.push_back(rebuild(t));
      continue;
    }
    const Ticks inflated = std::min(t.wcet(Mode::LO) + delta, t.wcet(Mode::HI));
    tasks.push_back(McTask::hi(t.name(), inflated, t.wcet(Mode::HI), t.deadline(Mode::LO),
                               t.deadline(Mode::HI), t.period(Mode::LO)));
  }
  Expected<TaskSet> inflated = TaskSet::create(std::move(tasks));
  if (!inflated)
    return Status::error("detection delay " + std::to_string(delta) +
                         " breaks the task model: " + inflated.error_message());
  return inflated;
}

double degraded_resetting_time(const TaskSet& set, double achieved_speed,
                               const FallbackPlan& fallback, const AnalysisLimits& limits) {
  const Expected<TaskSet> reduced = apply_termination(set, fallback.terminated);
  if (!reduced) return kInf;
  return reset_time(reduced.value(), achieved_speed, limits);
}

}  // namespace rbs
