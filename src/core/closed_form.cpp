#include "core/closed_form.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "support/tolerance.hpp"

namespace rbs {

ImplicitSet::ImplicitSet(std::vector<ImplicitTask> tasks) : tasks_(std::move(tasks)) {
  for (const ImplicitTask& t : tasks_) {
    if (t.period < 1 || t.c_lo < 1 || t.c_hi < t.c_lo)
      throw std::invalid_argument("implicit task " + t.name + ": need T>=1, 1<=C(LO)<=C(HI)");
    if (t.c_hi > t.period)
      throw std::invalid_argument("implicit task " + t.name + ": C(HI) must be <= T");
    if (t.criticality == Criticality::LO && t.c_hi != t.c_lo)
      throw std::invalid_argument("implicit task " + t.name + ": LO task needs C(HI)=C(LO)");
  }
}

double ImplicitSet::u_total_lo() const {
  double u = 0.0;
  for (const ImplicitTask& t : tasks_) u += t.u_lo();
  return u;
}

double ImplicitSet::u_hi_hi() const {
  double u = 0.0;
  for (const ImplicitTask& t : tasks_)
    if (t.criticality == Criticality::HI) u += t.u_hi();
  return u;
}

double ImplicitSet::u_lo_lo() const {
  double u = 0.0;
  for (const ImplicitTask& t : tasks_)
    if (t.criticality == Criticality::LO) u += t.u_lo();
  return u;
}

namespace {

TaskSet materialize_impl(const std::vector<ImplicitTask>& tasks, double x, double y,
                         bool terminate_lo) {
  assert(x > 0.0 && x <= 1.0);
  assert(terminate_lo || y >= 1.0);
  std::vector<McTask> out;
  out.reserve(tasks.size());
  for (const ImplicitTask& t : tasks) {
    if (t.criticality == Criticality::HI) {
      out.push_back(McTask::hi(t.name, t.c_lo, t.c_hi, prepared_lo_deadline(x, t.period, t.c_lo),
                               t.period, t.period));
    } else if (terminate_lo) {
      out.push_back(McTask::lo_terminated(t.name, t.c_lo, t.period, t.period));
    } else {
      const Ticks stretched =
          std::max(t.period, static_cast<Ticks>(std::ceil(y * static_cast<double>(t.period))));
      out.push_back(McTask::lo(t.name, t.c_lo, t.period, t.period, stretched, stretched));
    }
  }
  return TaskSet(std::move(out));
}

}  // namespace

TaskSet ImplicitSet::materialize(double x, double y) const {
  return materialize_impl(tasks_, x, y, /*terminate_lo=*/false);
}

TaskSet ImplicitSet::materialize_terminating(double x) const {
  return materialize_impl(tasks_, x, /*y=*/1.0, /*terminate_lo=*/true);
}

namespace {

// Exact per-task density supremum of a HI task with overrun-preparation
// factor x (see the header comment): the carry-over *jump* term and the
// ramp-saturation term. x == 1 (no preparation) with U(HI) > U(LO) yields
// +inf, matching the discussion after Theorem 2.
double hi_task_density(double u_lo, double u_hi, double x) {
  const double one_minus_x = 1.0 - x;
  if (one_minus_x <= 0.0)
    return u_hi > u_lo ? std::numeric_limits<double>::infinity() : 1.0;
  return std::max(u_hi / (one_minus_x + u_lo), (u_hi - u_lo) / one_minus_x);
}

}  // namespace

double lemma6_speedup_bound(const ImplicitSet& set, double x, double y) {
  assert(x > 0.0 && approx_le(x, 1.0, kStrictTol));
  assert(y >= 1.0);
  double bound = 0.0;
  for (const ImplicitTask& t : set.tasks()) {
    if (t.criticality == Criticality::HI) {
      bound += hi_task_density(t.u_lo(), t.u_hi(), x);
    } else {
      bound += t.u_lo() / ((y - 1.0) + t.u_lo());
    }
  }
  return bound;
}

double lemma6_speedup_bound(const TaskSet& set) {
  double bound = 0.0;
  for (const McTask& t : set) {
    if (t.is_hi()) {
      if (t.deadline(Mode::HI) != t.period(Mode::HI))
        throw std::invalid_argument("lemma6 requires implicit deadlines (HI task " + t.name() + ")");
      const double x_i = static_cast<double>(t.deadline(Mode::LO)) /
                         static_cast<double>(t.period(Mode::LO));
      bound += hi_task_density(t.utilization(Mode::LO), t.utilization(Mode::HI), x_i);
    } else {
      if (t.dropped_in_hi()) continue;  // y_i -> inf: zero contribution
      if (t.deadline(Mode::LO) != t.period(Mode::LO) ||
          t.deadline(Mode::HI) != t.period(Mode::HI))
        throw std::invalid_argument("lemma6 requires implicit deadlines (LO task " + t.name() + ")");
      const double y_i = static_cast<double>(t.period(Mode::HI)) /
                         static_cast<double>(t.period(Mode::LO));
      bound += t.utilization(Mode::LO) / ((y_i - 1.0) + t.utilization(Mode::LO));
    }
  }
  return bound;
}

double lemma7_reset_bound_raw(double total_c_hi, double s_min, double s) {
  if (s <= s_min) return std::numeric_limits<double>::infinity();
  return total_c_hi / (s - s_min);
}

double lemma7_reset_bound(const TaskSet& set, double s) {
  double total_c_hi = 0.0;
  for (const McTask& t : set) total_c_hi += static_cast<double>(t.wcet(Mode::HI));
  return lemma7_reset_bound_raw(total_c_hi, lemma6_speedup_bound(set), s);
}

double lemma7_reset_bound(const ImplicitSet& set, double x, double y, double s) {
  double total_c_hi = 0.0;
  for (const ImplicitTask& t : set.tasks()) total_c_hi += static_cast<double>(t.c_hi);
  return lemma7_reset_bound_raw(total_c_hi, lemma6_speedup_bound(set, x, y), s);
}

}  // namespace rbs
