// Degraded-guarantee analysis: what survives when the boost fails.
//
// Theorem 2 guarantees HI-mode schedulability only at speeds s >= s_min
// (judged by the facade's one verdict, AnalysisReport::hi_schedulable_at), and
// Corollary 5's resetting time Delta_R(s) diverges as s drops towards the
// HI-mode utilization. When the hardware denies, delays or throttles the
// boost (sim/faults.hpp), the achieved speed s' can fall below s_min; this
// module answers, offline and exactly via the existing DBF/ADB machinery:
//
//   * which *fallback* restores schedulability at s' -- LO tasks are
//     terminated (Eq. 3) in tiers, largest HI-mode demand first, until
//     the reduced set passes Theorem 2 at s'. find_fallback is the one
//     search over the tiers, one Analyzer::fits decision per tier; the
//     multicore receivers and boost-denied cores (multi/resilience.hpp)
//     call its span form in their own storage, and analyze_degraded adds
//     the exact numbers;
//   * the per-taskset *boost-fault margin*: the smallest s' that the
//     maximal admissible fallback (every LO task terminated) tolerates --
//     below it not even sacrificing all LO service saves the HI tasks;
//   * the inflated resetting time Delta_R(s') of the fallback set, i.e. how
//     long the degraded episode lasts in the worst case;
//   * which deadline misses are *licensed* when the fallback is (or is not)
//     applied -- the contract sim/watchdog.hpp checks every trace against.
//
// Delayed overrun detection (the budget monitor polls every delta instead of
// trapping the C(LO) crossing) is handled by inflating C(LO) of every HI
// task by delta and re-running the unchanged analyses on the inflated set.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/analysis.hpp"
#include "core/task.hpp"
#include "support/status.hpp"

namespace rbs {

/// One fallback: the LO tasks terminated in HI mode, in sacrifice order.
struct FallbackPlan {
  std::vector<std::size_t> terminated;  ///< indices into the analyzed set
  std::size_t tier() const { return terminated.size(); }
};

/// Verdict of analyze_degraded for one achieved speed s'.
struct DegradedGuarantee {
  double achieved_speed = 0.0;
  /// s_min of the set as given (Theorem 2); the no-fault requirement.
  double nominal_s_min = 0.0;
  /// HI mode schedulable at s' as given: the fault is harmless, no fallback.
  bool schedulable_unmodified = false;
  /// Some termination tier restores HI-mode schedulability at s'.
  bool feasible = false;
  /// Minimal tier restoring it (empty when schedulable_unmodified).
  FallbackPlan fallback;
  /// s_min of the fallback set (= nominal_s_min when no fallback needed).
  double s_min_with_fallback = 0.0;
  /// Worst-case HI-mode dwell Delta_R at s' under the fallback (ticks);
  /// +inf when infeasible or s' is at/below the HI-mode utilization.
  double delta_r = 0.0;
  /// License for the watchdog when the system runs the *unmodified* set at
  /// s': true iff !schedulable_unmodified, i.e. every HI-mode miss is within
  /// the voided guarantee. (Running the fallback set instead re-establishes
  /// the full guarantee; LO-mode misses are never licensed by a boost fault.)
  bool hi_mode_misses_licensed = false;
};

/// Where the first termination tier that saves a set's HI mode lies.
struct FallbackFit {
  /// Some tier passes Theorem 2 at the speed.
  bool feasible = false;
  /// The first such tier (empty when the set as given passes).
  FallbackPlan fallback;
  /// That tier's Delta_R at the speed fits the dwell budget.
  bool within_budget = false;
};

/// The one search over the termination tiers: the set as given (tier 0),
/// then LO tasks terminated one by one in sacrifice order -- decreasing
/// HI-mode utilization, ties by index, tasks already terminated in the input
/// skipped. Finds the first tier whose HI mode is schedulable at `speed` and
/// checks its Delta_R at `speed` against `max_reset`, with one
/// Analyzer::fits decision per tier under `limits`. A facade error reads as
/// a tier that does not pass. Runs the span form below on a copy of the set.
[[nodiscard]] FallbackFit find_fallback(const TaskSet& set, double speed, double max_reset,
                                        const AnalysisLimits& limits = {});

/// The span form, the one search: the same tiers and result over `tasks`, a
/// caller's reused vector holding the tasks of a valid set (analyze_tasks'
/// precondition), with every decision run in the caller's `storage`. A tier
/// terminates its sacrificed task in place -- set_hi_service(kInfTicks,
/// kInfTicks), the task McTask::lo_terminated builds -- so no tier builds a
/// TaskSet. On return `tasks` hold the last tier decided. Allocates the
/// sacrifice order and the tier list once per call, however many tiers it
/// visits.
[[nodiscard]] FallbackFit find_fallback(std::span<McTask> tasks, double speed, double max_reset,
                                        const AnalysisLimits& limits, AnalysisStorage& storage);

/// Degraded guarantee for an achieved HI-mode speed s' (> 0), typically
/// below s_min: find_fallback at s' without a dwell budget, plus the exact
/// numbers of the outcome -- one Theorem 2 sweep under `limits` for s_min of
/// the set as given and one for the fallback set, and one Delta_R call on
/// the accepted set. A facade error yields infeasible, delta_r = +inf;
/// nothing throws.
[[nodiscard]] DegradedGuarantee analyze_degraded(const TaskSet& set, double achieved_speed,
                                                 const AnalysisLimits& limits = {});

struct BoostFaultMargin {
  /// Theorem 2 requirement of the unmodified set.
  double s_min = 0.0;
  /// Smallest achieved speed any admissible fallback tolerates: s_min of
  /// the set with every LO task terminated. s' >= margin  =>  some tier in
  /// analyze_degraded is feasible; below it HI tasks are beyond saving.
  double margin = 0.0;
  /// The maximal fallback realizing the margin.
  FallbackPlan max_fallback;
};

/// The per-taskset boost-fault margin (see above).
[[nodiscard]] BoostFaultMargin boost_fault_margin(const TaskSet& set);

/// Returns `set` with the listed LO tasks terminated in HI mode (Eq. 3).
/// Errors on out-of-range indices, HI tasks, or duplicates.
[[nodiscard]] Expected<TaskSet> apply_termination(const TaskSet& set, const std::vector<std::size_t>& lo_indices);

/// Models a budget monitor polling every `delta` ticks: every HI task's
/// C(LO) grows by delta (capped at C(HI) -- beyond that the overrun
/// completes undetected and HI mode is never entered for that job). Errors
/// when the inflated set violates the model constraints (e.g. C(LO) > D(LO)),
/// in which case no guarantee survives the detection latency.
[[nodiscard]] Expected<TaskSet> inflate_detection_delay(const TaskSet& set, Ticks delta);

/// Delta_R at `achieved_speed` under `fallback` (ticks), under `limits`'
/// carry-over model; +inf when the supply never catches the arrived demand.
[[nodiscard]] double degraded_resetting_time(const TaskSet& set, double achieved_speed,
                                             const FallbackPlan& fallback,
                                             const AnalysisLimits& limits = {});

}  // namespace rbs
