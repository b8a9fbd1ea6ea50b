#include "core/tuning.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/dbf.hpp"
#include "core/edf.hpp"
#include "core/speedup.hpp"
#include "support/det_annotations.hpp"
#include "support/tolerance.hpp"

namespace rbs {

// RBS_DET_PATH: the campaign items materialise their sets at this x, so the
// bisection must replay bit for bit.
RBS_DET_PATH MinXResult min_x_for_lo(const ImplicitSet& set, double tolerance) {
  MinXResult result;
  // The LO-mode test ignores HI-mode parameters. The demand table is built
  // once, at full deadlines; each probe only moves the HI tasks' deadlines
  // and tests it again (docs/ANALYSIS.md §1).
  LoDemandTable table(set);
  auto schedulable_at = [&](double x) {
    table.prepare_hi_deadlines(x);
    return table.test().schedulable;
  };
  if (!table.test().schedulable) return result;  // infeasible even with full deadlines

  result.feasible = true;
  double lo = 0.0;  // known-infeasible (deadlines collapse onto C(LO))
  double hi = 1.0;  // known-feasible
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (schedulable_at(mid))
      hi = mid;
    else
      lo = mid;
  }
  result.x = hi;
  return result;
}

namespace {

// Greedy objective: primarily s_min; while s_min is infinite (several HI
// tasks still have D(LO) == D(HI)), break ties by the residual demand at
// Delta = 0, so the greedy keeps shortening deadlines until the infinity
// clears instead of stalling (no single-task step can fix s_min = inf when
// more than one task is unprepared).
struct Objective {
  double s_min;
  Ticks demand_at_zero;

  bool better_than(const Objective& other) const {
    const bool inf_a = std::isinf(s_min);
    const bool inf_b = std::isinf(other.s_min);
    if (inf_a != inf_b) return inf_b;
    if (inf_a && inf_b) return demand_at_zero < other.demand_at_zero;
    return definitely_lt(s_min, other.s_min, kStrictTol);
  }
};

Objective evaluate(const TaskSet& set) {
  return {min_speedup_value(set), dbf_hi_total(set, 0)};
}

}  // namespace

MinXResult utilization_min_x(const ImplicitSet& set) {
  MinXResult result;
  const double u_lo_lo = set.u_lo_lo();
  double u_hi_lo = 0.0;
  for (const ImplicitTask& t : set.tasks())
    if (t.criticality == Criticality::HI) u_hi_lo += t.u_lo();
  if (u_lo_lo >= 1.0) return result;
  const double x = u_hi_lo / (1.0 - u_lo_lo);
  if (x > 1.0) return result;
  result.feasible = true;
  result.x = x;
  return result;
}

TightenResult tighten_lo_deadlines(TaskSet set, int max_iters) {
  Objective current = evaluate(set);
  TightenResult result{std::move(set), current.s_min, 0};
  if (!lo_mode_schedulable(result.set)) return result;

  for (int iter = 0; iter < max_iters; ++iter) {
    std::optional<std::size_t> best_task;
    Ticks best_deadline = 0;
    Objective best = current;

    for (std::size_t i = 0; i < result.set.size(); ++i) {
      const McTask& t = result.set[i];
      if (!t.is_hi()) continue;
      const Ticks now = t.deadline(Mode::LO);
      const Ticks floor_d = t.wcet(Mode::LO);
      if (now <= floor_d) continue;
      // A coarse geometric step for fast descent plus a single-tick step so
      // the greedy can fine-tune near a local optimum.
      const Ticks coarse = std::max<Ticks>(1, (now - floor_d) / 4);
      for (Ticks step : {coarse, Ticks{1}}) {
        const Ticks candidate_deadline = now - step;
        std::vector<McTask> tasks = result.set.tasks();
        tasks[i].set_lo_deadline(candidate_deadline);
        TaskSet candidate(std::move(tasks));
        if (!lo_mode_schedulable(candidate)) continue;
        const Objective obj = evaluate(candidate);
        if (obj.better_than(best)) {
          best = obj;
          best_task = i;
          best_deadline = candidate_deadline;
        }
        if (step == 1) break;  // avoid evaluating the same step twice
      }
    }

    if (!best_task) break;  // local optimum
    std::vector<McTask> tasks = result.set.tasks();
    tasks[*best_task].set_lo_deadline(best_deadline);
    result.set = TaskSet(std::move(tasks));
    current = best;
    result.s_min = best.s_min;
    result.iterations = iter + 1;
  }
  return result;
}

}  // namespace rbs
