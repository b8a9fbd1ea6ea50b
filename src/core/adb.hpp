// Arrived demand bound after the mode switch (Section IV, Theorem 4).
//
// ADB_HI(tau_i, Delta) upper-bounds the total execution demand of tau_i that
// has *arrived* in [t_hat, t_hat + Delta], where t_hat is the transition to HI
// mode. Per Lemma 3 the worst case has the interval end on a job arrival,
// which yields (Eqs. 9-10):
//
//   w'(tau_i, Delta)  = (Delta mod T(HI)) - (T(HI) - D_i(LO))
//   ADB_HI(tau_i, D)  = r(tau_i, D, w') + (floor(D / T(HI)) + 1) * C_i(HI)
//
// For a LO task terminated in HI mode (T(HI)=D(HI)=inf) the formula
// degenerates to a constant C_i(LO): the carry-over job that was already
// admitted still has to finish before the processor can idle, but no further
// jobs arrive. Pass discard_dropped_carryover=true to model a runtime that
// aborts the carry-over job instead (ablation; the simulator supports both).
#pragma once

#include <span>
#include <vector>

#include "core/breakpoints.hpp"
#include "core/task.hpp"

namespace rbs {

/// Eq. (10) at integer Delta.
[[nodiscard]] Ticks adb_hi(const McTask& task, Ticks delta, bool discard_dropped_carryover = false);

/// Sum over the tasks (a TaskSet converts).
[[nodiscard]] Ticks adb_hi_total(std::span<const McTask> tasks, Ticks delta,
                                 bool discard_dropped_carryover = false);

/// Appends the breakpoint sequences of adb_hi for one task to `out`, tagged
/// `mask`, with their deltas (append_ramp_family): window starts k*T(HI),
/// ramp starts k*T(HI) + (T(HI)-D(LO)) and saturations C(LO) later. Returns
/// the task's slope just right of Delta = 0. Appends nothing (and returns 0)
/// for dropped tasks: their ADB is constant.
Ticks adb_hi_breakpoints(const McTask& task, unsigned mask, std::vector<TaggedSeq>& out);

}  // namespace rbs
