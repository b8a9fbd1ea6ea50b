#include "core/resilience.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "core/analysis.hpp"
#include "core/analysis_storage.hpp"

namespace rbs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Non-dropped LO tasks in sacrifice order: decreasing HI-mode utilization
/// (most demand relief per termination first), ties by index. The index
/// tie-break makes the order strict, so std::sort gives the stable order
/// without a temporary buffer.
std::vector<std::size_t> sacrifice_order(std::span<const McTask> tasks) {
  std::vector<std::size_t> order;
  order.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (!tasks[i].is_hi() && !tasks[i].dropped_in_hi()) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ua = tasks[a].utilization(Mode::HI);
    const double ub = tasks[b].utilization(Mode::HI);
    if (ua != ub) return ua > ub;  // rbs-lint: allow(float-eq)
    return a < b;
  });
  return order;
}

}  // namespace

Expected<TaskSet> apply_termination(const TaskSet& set,
                                    const std::vector<std::size_t>& lo_indices) {
  std::vector<McTask> tasks = set.tasks();
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
    tasks[i].set_hi_service(kInfTicks, kInfTicks);
  }
  return TaskSet::create(std::move(tasks));
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
  g.delta_r = kInf;

  std::vector<McTask> tasks = set.tasks();
  AnalysisStorage storage;
  AnalysisRequest request;
  request.limits = limits;
  // Theorem 2 alone on the tasks as they stand; +inf should the facade
  // reject the request.
  const auto s_min = [&] {
    request.speed = 1.0;
    request.parts = {.speedup = true, .reset = false, .lo = false};
    const Expected<AnalysisReport> report = analyze_tasks(tasks, request, storage);
    return report ? report->s_min : kInf;
  };
  g.nominal_s_min = s_min();
  g.s_min_with_fallback = g.nominal_s_min;

  const FallbackFit fit = find_fallback(tasks, achieved_speed, kInf, limits, storage);
  g.schedulable_unmodified = fit.feasible && fit.fallback.tier() == 0;
  // Running the unmodified set at s' < s_min voids Theorem 2 in HI mode.
  g.hi_mode_misses_licensed = !g.schedulable_unmodified;
  if (!fit.feasible) return g;  // even full termination cannot absorb s'

  // The search leaves the accepted tier in `tasks`.
  g.feasible = true;
  g.fallback = fit.fallback;
  if (!g.schedulable_unmodified) g.s_min_with_fallback = s_min();
  request.speed = achieved_speed;
  request.parts = {.speedup = false, .reset = true, .lo = false};
  const Expected<AnalysisReport> reset = analyze_tasks(tasks, request, storage);
  g.delta_r = reset ? reset->delta_r : kInf;
  return g;
}

}  // namespace rbs
