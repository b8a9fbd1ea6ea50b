// Implicit-deadline special case and closed formulas (Section V).
//
// The paper's Section V adopts the normal form of Eqs. (13)-(14):
//   HI tasks:  D(LO) = x * D(HI),           T(HI) = T(LO) = D(HI)
//   LO tasks:  D(HI) = y * D(LO),           T(chi) = D(chi)
// with a common overrun-preparation factor 0 < x < 1 and a common service
// degradation factor y >= 1.
//
// Lemma 6 (Eq. 15) then bounds the minimum speedup in closed form:
//
//   s_bar(x, y) = sum_{HI}  max( U_i(HI) / ((1 - x) + U_i(LO)) ,
//                                (U_i(HI) - U_i(LO)) / (1 - x) )
//               + sum_{LO}  U_i(LO) / ((y - 1) + U_i(LO))
//
// Each summand is the exact per-task HI-mode demand-density supremum: a HI
// task's DBF_HI jumps by C(HI)-C(LO) at Delta = (1-x)T (density
// (U(HI)-U(LO))/(1-x)) and its slope-1 ramp saturates at
// Delta = (1-x)T + C(LO) (density U(HI)/((1-x)+U(LO))); whichever is larger
// dominates every later window by the mediant inequality. Summing the
// per-task suprema upper-bounds the supremum of the sum, hence
// s_bar >= s_min. With y -> inf (termination) the LO terms vanish,
// consistent with Eq. (3).
//
// Lemma 7 (Eq. 16) bounds the resetting time in closed form:
//
//   Delta_R_bar(s) = sum_i C_i(HI) / (s - s_bar),     +inf for s <= s_bar.
//
// `ImplicitSet` holds the mode-independent skeleton {T, C(LO), C(HI), chi}
// and materialises full task sets for given (x, y) or for LO-task
// termination; the closed formulas are provided both for a materialised
// TaskSet (deriving the per-task effective x_i, y_i, exact under integer
// rounding) and for scalar (x, y) as plotted in Fig. 4.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/task.hpp"

namespace rbs {

/// Skeleton of one implicit-deadline dual-criticality task.
struct ImplicitTask {
  std::string name;
  Criticality criticality = Criticality::LO;
  Ticks period = 0;  ///< T = D(HI) for HI tasks, T(LO) = D(LO) for LO tasks
  Ticks c_lo = 0;
  Ticks c_hi = 0;  ///< equals c_lo for LO tasks

  double u_lo() const { return static_cast<double>(c_lo) / static_cast<double>(period); }
  double u_hi() const { return static_cast<double>(c_hi) / static_cast<double>(period); }
};

/// D(LO) of a HI task of period T prepared with factor x (Eq. 13), rounded
/// to ticks: clamp(floor(x*T), C(LO), T).
inline Ticks prepared_lo_deadline(double x, Ticks period, Ticks c_lo) {
  return std::clamp(static_cast<Ticks>(std::floor(x * static_cast<double>(period))), c_lo,
                    period);
}

/// A set of implicit-deadline skeleton tasks plus the (x, y) materialisers.
class ImplicitSet {
 public:
  ImplicitSet() = default;
  explicit ImplicitSet(std::vector<ImplicitTask> tasks);

  const std::vector<ImplicitTask>& tasks() const { return tasks_; }
  std::size_t size() const { return tasks_.size(); }

  /// Sum of C(LO)/T over all tasks (the LO-mode utilization).
  double u_total_lo() const;
  /// Sum of C(HI)/T over HI tasks (the HI-mode HI-task utilization).
  double u_hi_hi() const;
  /// Sum of C(LO)/T over LO tasks.
  double u_lo_lo() const;

  /// Builds the full task set for factors (x, y) per Eqs. (13)-(14).
  /// Deadlines are rounded to ticks: D(LO) = prepared_lo_deadline(x, T, C(LO))
  /// for HI tasks; T(HI) = D(HI) = max(ceil(y*T), T) for LO tasks.
  TaskSet materialize(double x, double y) const;

  /// Same, but LO tasks are terminated in HI mode (y = inf, Eq. 3).
  TaskSet materialize_terminating(double x) const;

 private:
  std::vector<ImplicitTask> tasks_;
};

/// Lemma 6 for scalar factors (pure formula, no rounding).
double lemma6_speedup_bound(const ImplicitSet& set, double x, double y);

/// Lemma 6 with per-task effective factors derived from a materialised set
/// (x_i = D_i(LO)/T_i for HI tasks, y_i = T_i(HI)/T_i(LO) for LO tasks).
/// Requires the set to be in the implicit-deadline normal form.
double lemma6_speedup_bound(const TaskSet& set);

/// Lemma 7: closed-form resetting-time bound (ticks) at HI-mode speed `s`,
/// with s_bar taken from lemma6_speedup_bound(set). +inf for s <= s_bar.
double lemma7_reset_bound(const TaskSet& set, double s);

/// Lemma 7 for scalar factors: uses lemma6_speedup_bound(set, x, y) and the
/// skeleton's total C(HI).
double lemma7_reset_bound(const ImplicitSet& set, double x, double y, double s);

/// Directly parameterised variant of Eq. (16) used by Fig. 4b: total C(HI)
/// in ticks, a given s_min, and the actual speed s.
double lemma7_reset_bound_raw(double total_c_hi, double s_min, double s);

}  // namespace rbs
