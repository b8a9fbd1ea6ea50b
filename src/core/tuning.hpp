// Design-parameter tuning.
//
// All of the paper's experiments (Figs. 5-7) set the overrun-preparation
// factor x "to the minimum to guarantee LO mode schedulability" [6]: the
// smaller x, the more slack is statically reserved for overrun and the less
// HI-mode speedup is required (Lemma 6) -- but shrinking x inflates LO-mode
// demand, so the LO-mode EDF test bounds it from below. min_x_for_lo finds
// that minimum by bisection (the LO-mode test is monotone in x).
//
// tighten_lo_deadlines is the *per-task* generalisation (an extension in the
// spirit of Ekberg & Yi [5]): instead of one common factor it greedily
// shortens individual LO-mode deadlines of HI tasks while LO-mode
// schedulability holds, minimising the required speedup.
#pragma once

#include "core/closed_form.hpp"
#include "core/task.hpp"

namespace rbs {

struct MinXResult {
  /// False when even x = 1 is not LO-mode schedulable.
  bool feasible = false;
  /// Smallest feasible common factor (within `tolerance`).
  double x = 1.0;
};

/// Minimum common deadline-shortening factor keeping LO mode schedulable,
/// found by bisection over the exact processor-demand test. Note this can be
/// very small (deadlines collapse towards the WCETs) because the exact test
/// is far less pessimistic than utilization bounds. One LoDemandTable
/// (core/edf.hpp) serves all probes, about 15 at the default tolerance: a
/// probe moves the HI tasks' deadlines and walks the table again, and
/// allocates nothing.
MinXResult min_x_for_lo(const ImplicitSet& set, double tolerance = 1e-4);

/// The classic utilization-based rule of EDF-VD [4] (also the baseline the
/// paper's ref. [6] builds on): x = U_HI(LO) / (1 - U_LO(LO)), infeasible
/// when that exceeds 1. Coarser than min_x_for_lo but O(n); the paper's
/// Figs. 6-7 magnitudes are consistent with this rule (see EXPERIMENTS.md).
MinXResult utilization_min_x(const ImplicitSet& set);

struct TightenResult {
  TaskSet set;          ///< input set with tuned LO-mode deadlines of HI tasks
  double s_min = 0.0;   ///< achieved minimum speedup after tuning
  int iterations = 0;   ///< greedy steps taken
};

/// Greedy per-task LO-deadline tightening: repeatedly shorten the LO-mode
/// deadline of whichever HI task yields the largest drop in s_min while the
/// set stays LO-mode schedulable. Stops at a local optimum or `max_iters`.
TightenResult tighten_lo_deadlines(TaskSet set, int max_iters = 64);

}  // namespace rbs
