#include "core/edf.hpp"

#include <utility>
#include <vector>

#include "core/breakpoints.hpp"
#include "core/dbf.hpp"
#include "support/tolerance.hpp"

namespace rbs {

EdfTestResult lo_mode_test(const TaskSet& set, const EdfTestOptions& options) {
  EdfTestResult result;
  if (set.empty()) {
    result.schedulable = true;
    return result;
  }

  const double u = set.total_utilization(Mode::LO);
  // DBF_LO(tau_i, D) <= U_i * D + U_i * (T_i - D_i), so demand can exceed
  // speed * D only below bound_slack / (speed - U).
  double bound_slack = 0.0;
  for (const McTask& t : set)
    bound_slack += t.utilization(Mode::LO) *
                   static_cast<double>(t.period(Mode::LO) - t.deadline(Mode::LO));

  // The utilization-vs-speed trichotomy is a *breakpoint* of the analysis:
  // U is a sum of C/T ratios whose mathematical value can equal the speed
  // exactly while the computed double lands an ulp off either side (e.g.
  // three tasks with C/T = 1/3). Route the comparison through the speed
  // tolerance so the degenerate U = speed branch is taken whenever the two
  // are indistinguishable, instead of walking an absurd breakpoint window.
  if (definitely_gt(u, options.speed, kSpeedTol)) {
    result.schedulable = false;
    result.violation_delta = 0;  // asymptotic overload; no single witness point
    return result;
  }

  Ticks delta_max;
  if (definitely_lt(u, options.speed, kSpeedTol)) {
    delta_max = static_cast<Ticks>(bound_slack / (options.speed - u)) + 1;
  } else {
    // U == speed (to tolerance): the bound degenerates. With implicit
    // deadlines (slack exactly 0) demand never exceeds supply; otherwise
    // fall back to the breakpoint budget and report inconclusive if it is
    // exhausted.
    if (approx_zero(bound_slack, kTimeTol)) {
      result.schedulable = true;
      return result;
    }
    delta_max = kInfTicks - 1;
  }

  std::vector<TaggedSeq> seqs;
  seqs.reserve(set.size());
  for (const McTask& t : set) seqs.push_back(dbf_lo_breakpoints(t, 1u));
  TaggedBreakpointMerger merger(std::move(seqs));

  // DBF_LO is a step function that is 0 before the first deadline (D >= 1):
  // the running total only adds each tick's jumps.
  Ticks demand = 0;
  while (const auto point = merger.next()) {
    const Ticks d = point->tick;
    if (d > delta_max) break;
    if (++result.breakpoints_visited > options.max_breakpoints) {
      result.schedulable = false;
      result.conclusive = false;
      return result;
    }
    demand += point->delta[0].jump;
    const long double supply =
        static_cast<long double>(options.speed) * static_cast<long double>(d);
    if (static_cast<long double>(demand) > supply) {
      result.schedulable = false;
      result.violation_delta = d;
      return result;
    }
  }
  result.schedulable = true;
  return result;
}

bool lo_mode_schedulable(const TaskSet& set, double speed) {
  EdfTestOptions options;
  options.speed = speed;
  return lo_mode_test(set, options).schedulable;
}

}  // namespace rbs
