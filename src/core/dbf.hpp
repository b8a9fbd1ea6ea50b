// Demand bound functions (Section III of the paper).
//
//  * dbf_lo  -- Eq. (4): LO-mode demand of a task in any interval of length
//               delta (classic Baruah/Ekberg step function).
//  * dbf_hi  -- Lemma 1 (Eqs. 5-7): HI-mode demand in an interval of length
//               delta that starts at the mode switch, including the residual
//               demand r(...) of the carry-over job that was caught mid-flight
//               by the switch.
//
// Both functions are evaluated exactly over integer ticks. dbf_hi is
// piecewise linear (the carry-over term ramps with slope 1) and jumps only
// upward, so the ratio maximisation of Theorem 2 needs only its values at the
// breakpoints. The walks never call these per tick: the breakpoint sequences
// below carry each tick's jump and slope change, and the walks keep the total
// demand as running state (core/breakpoints.hpp).
#pragma once

#include <optional>
#include <vector>

#include "core/breakpoints.hpp"
#include "core/task.hpp"

namespace rbs {

/// Eq. (4): max{ floor((delta - D(LO))/T(LO)) + 1, 0 } * C(LO).
[[nodiscard]] Ticks dbf_lo(const McTask& task, Ticks delta);

/// Lemma 1: r(tau_i, delta, w) + floor(delta / T(HI)) * C(HI).
/// A task dropped in HI mode (Eq. 3) has zero HI-mode demand: its carry-over
/// job keeps running but no longer carries a deadline.
[[nodiscard]] Ticks dbf_hi(const McTask& task, Ticks delta);

/// Sum of dbf_lo over the whole set.
[[nodiscard]] Ticks dbf_lo_total(const TaskSet& set, Ticks delta);

/// Sum of dbf_hi over the whole set.
[[nodiscard]] Ticks dbf_hi_total(const TaskSet& set, Ticks delta);

/// Appends the breakpoint sequences of dbf_hi for one task to `out`, tagged
/// `mask`, with their deltas (append_ramp_family): window starts k*T(HI),
/// ramp starts k*T(HI)+g and ramp saturations k*T(HI)+g+C(LO), with
/// g = D(HI)-D(LO). Returns the task's slope just right of Delta = 0.
/// Appends nothing (and returns 0) for dropped tasks.
Ticks dbf_hi_breakpoints(const McTask& task, unsigned mask, std::vector<TaggedSeq>& out);

/// H = lcm of the finite periods T_i(mode) (1 when there are none; a task
/// dropped in HI mode has T(HI) = kInfTicks and is skipped), or nullopt as
/// soon as it passes kInfTicks. A task's demand in either mode grows by C
/// every T ticks, so the total demand repeats, shifted by U*H, every H ticks:
/// the Theorem 2 search stops at the HI-mode H past the transition latency
/// (core/analysis.cpp), and the LO-mode test's window ends at the LO-mode H
/// (core/edf.hpp, which folds it with lcm_within under its own cap).
[[nodiscard]] std::optional<Ticks> hyperperiod(const TaskSet& set, Mode mode);

/// lcm(h, period) for h, period >= 1, or nullopt when it passes `cap`: one
/// step of the hyperperiod fold.
[[nodiscard]] std::optional<Ticks> lcm_within(Ticks h, Ticks period, Ticks cap);

/// Breakpoint (jump) sequence of dbf_lo for one task, tagged `mask`:
/// k*T(LO) + D(LO), each tick adding C(LO).
[[nodiscard]] TaggedSeq dbf_lo_breakpoints(const McTask& task, unsigned mask);

}  // namespace rbs
