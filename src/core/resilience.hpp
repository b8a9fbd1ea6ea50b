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
//     search over the tiers, one fits decision per tier in its caller's
//     storage; the multicore receivers and boost-denied cores
//     (multi/resilience.hpp) call it on their core sets, and
//     analyze_degraded adds the exact numbers;
//   * the inflated resetting time Delta_R(s') of the fallback set, i.e. how
//     long the degraded episode lasts in the worst case;
//   * which deadline misses are *licensed* when the fallback is (or is not)
//     applied -- the contract sim/watchdog.hpp checks every trace against.
//
// Every terminated task here is built one way: a copy of the live LO task
// with set_hi_service(kInfTicks, kInfTicks), the task McTask::lo_terminated
// builds from its LO-mode parameters.
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

/// The one search over the termination tiers: the tasks as given (tier 0),
/// then LO tasks terminated one by one in sacrifice order -- decreasing
/// HI-mode utilization, ties by index, tasks already terminated in the input
/// skipped. Finds the first tier whose HI mode is schedulable at `speed` and
/// checks its Delta_R at `speed` against `max_reset`, with one fits decision
/// per tier under `limits`, run by analyze_tasks in the caller's `storage`.
/// A facade error reads as a tier that does not pass. `tasks` are a caller's
/// reused vector holding the tasks of a valid set (analyze_tasks'
/// precondition); a tier terminates its sacrificed task in place, so no tier
/// builds a TaskSet, and on return `tasks` hold the last tier decided.
/// Allocates the sacrifice order and the tier list once per call, however
/// many tiers it visits.
[[nodiscard]] FallbackFit find_fallback(std::span<McTask> tasks, double speed, double max_reset,
                                        const AnalysisLimits& limits, AnalysisStorage& storage);

/// Degraded guarantee for an achieved HI-mode speed s' (> 0), typically
/// below s_min: find_fallback at s' without a dwell budget, plus the exact
/// numbers of the outcome. One copy of the tasks and one storage serve
/// every analysis under `limits`: a Theorem 2 sweep at speed 1 for s_min of
/// the set as given, the search, and on the accepted tier a Theorem 2 sweep
/// for its s_min (tier > 0) and a Corollary 5 call for its Delta_R at s'. A
/// facade error yields infeasible, or an s_min or delta_r of +inf; nothing
/// throws.
[[nodiscard]] DegradedGuarantee analyze_degraded(const TaskSet& set, double achieved_speed,
                                                 const AnalysisLimits& limits = {});

/// Returns `set` with the listed LO tasks terminated in HI mode (Eq. 3).
/// Errors on out-of-range indices, HI tasks, or duplicates.
[[nodiscard]] Expected<TaskSet> apply_termination(const TaskSet& set, const std::vector<std::size_t>& lo_indices);

}  // namespace rbs
