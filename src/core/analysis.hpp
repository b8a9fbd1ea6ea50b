// Unified analysis facade (the library's primary entry point).
//
// One call answers the questions the paper's Sections III-IV pose about a
// task set: the minimum HI-mode speedup s_min (Theorem 2), the resetting
// time Delta_R at a given speed (Corollary 5), and the LO/HI/system
// schedulability verdicts -- in a single `AnalysisReport`, computed with a
// *fused* breakpoint sweep. This sweep is the library's only implementation
// of Theorem 2 and Corollary 5. DBF_HI and ADB_HI share their arithmetic
// breakpoint families (window starts, ramp starts, ramp saturations), so one
// TaggedBreakpointMerger walk serves both the Theorem 2 ratio maximisation
// and the Corollary 5 crossing search, under the paper's instantaneous boost
// or a DVFS transition latency (`AnalysisRequest::latency`); ticks shared by
// both families are fetched from the heap once instead of twice, and a
// settled sub-analysis skips foreign ticks for free. Each search keeps its
// total demand as running state, updated from the jump and slope deltas the
// popped sequences carry (core/breakpoints.hpp), so a tick costs O(log n) heap
// work per popped sequence rather than an O(n) re-sum.
// tests/core/analysis_test.cpp checks every result against a brute-force
// exact oracle that shares none of this code.
//
// `Analyzer::fits` asks the decision question the multicore probes need --
// does the request fit its speeds and a dwell budget? -- from the same sweep:
// each search stops as soon as its verdict is known (docs/ANALYSIS.md §3),
// and a set that fails LO mode never reaches the sweep.
//
// Both go through `analyze_tasks`, the one implementation: it reads the
// tasks as a span and builds its tables in an AnalysisStorage its caller
// owns (core/analysis_storage.hpp). The facade passes a local storage per
// call; the multicore probes keep one for a whole partition or resilience
// call and pass spans of a reused task vector, so a probe builds no TaskSet.
//
// The one-shot helpers (`min_speedup_value`, `hi_mode_schedulable`,
// `system_schedulable`, `resetting_time_value`) are thin inline wrappers over
// this facade; batched/parallel evaluation over many task sets goes through
// campaign/supervisor.hpp, which maps a per-item job such as `analyze()` over
// worker threads.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "core/task.hpp"
#include "support/status.hpp"
#include "support/tolerance.hpp"

namespace rbs {

/// Default cap on the breakpoints one pseudo-polynomial walk may examine
/// (each sub-analysis here, the LO-mode test included); exceeded only by
/// adversarial inputs.
inline constexpr std::size_t kBreakpointBudget = 20'000'000;

/// The resource/precision knobs shared by every sub-analysis.
struct AnalysisLimits {
  /// Hard cap on examined breakpoints, applied to each sub-analysis
  /// independently.
  std::size_t max_breakpoints = kBreakpointBudget;
  /// Secondary stopping rule of the speedup search: stop once the remaining
  /// uncertainty (U + K/Delta) - best drops below rel_tol * best and report
  /// the residual via `s_min_error_bound` (the exact rule cannot fire when
  /// the supremum *equals* the utilization limit).
  double rel_tol = kSpeedTol.relative;

  /// The reduced-effort preset the analysis server applies to HI-criticality
  /// requests while it is in its degraded ("HI") service mode: a 100x
  /// smaller breakpoint budget and a coarse stopping tolerance, trading the
  /// exactness flags (`s_min_exact` / `delta_r_exact` turn false when the
  /// caps bite, and `s_min_error_bound` reports the residual) for bounded
  /// per-request latency under overload. Mirrors the paper's degradation
  /// philosophy: keep serving the HI-criticality work, mark the answer as
  /// degraded instead of missing its deadline.
  [[nodiscard]] static AnalysisLimits degraded() {
    AnalysisLimits limits;
    limits.max_breakpoints = 200'000;
    limits.rel_tol = kDegradedRelTol;
    return limits;
  }
};

/// Which sub-analyses to run. Verdict fields of sub-analyses that were not
/// requested keep their (conservative) defaults.
struct AnalysisParts {
  bool speedup = true;  ///< s_min (Theorem 2) + the HI-mode verdict
  bool reset = true;    ///< Delta_R at `speed` (Corollary 5)
  bool lo = true;       ///< LO-mode processor-demand test at unit speed
};

/// One self-contained unit of analysis work: the set, the speeds to certify,
/// the sub-analyses wanted, and the limits to run them under. Requests own
/// their task set so a campaign can ship them to worker threads wholesale.
struct AnalysisRequest {
  TaskSet set;
  double speed = 1.0;  ///< HI-mode speedup factor s for Delta_R / verdicts
  AnalysisParts parts;
  AnalysisLimits limits;
  /// Criticality of the *request* itself, mirroring the task model's levels:
  /// under overload the analysis server (service/server.hpp) sheds kLo
  /// requests and serves kHi ones under AnalysisLimits::degraded(), the
  /// EDF-VD degradation philosophy applied to the service layer. Ignored by
  /// analyze() itself -- a priority never changes a report's numbers.
  Criticality priority = Criticality::LO;
  /// DVFS transition latency L in ticks, in [0, kInfTicks): the boost takes
  /// effect L ticks after the mode switch, so the HI-mode supply in an
  /// interval of length Delta is Delta + (Delta - L)^+ * (s - 1) instead of
  /// s * Delta (docs/ANALYSIS.md §6). Read by the Theorem 2 and Corollary 5
  /// searches; 0 is the paper's instantaneous boost. s_min may come out
  /// below 1 (nominal speed then suffices), and Delta_R under L > 0 needs a
  /// speed of at least 1. The simulator's counterpart is
  /// sim::SimConfig::speed_change_latency.
  Ticks latency = 0;
};

/// Everything the fused sweep learns about one task set.
struct AnalysisReport {
  // --- Theorem 2 (parts.speedup) -------------------------------------------
  /// Minimum HI-mode speedup (Eq. 8); +inf when Delta=0 demand is positive,
  /// or when the demand inside the latency window [0, L] exceeds nominal
  /// supply.
  double s_min = 0.0;
  /// True when the stopping rule proved s_min optimal.
  bool s_min_exact = true;
  /// When !s_min_exact: the true s_min lies in [s_min, s_min + error bound].
  /// A decision report (Analyzer::fits) reports the bracket that decided
  /// the verdict this way.
  double s_min_error_bound = 0.0;
  /// Interval length attaining the supremum (0 when the Delta->inf limit,
  /// i.e. the HI-mode utilization, dominates); for an s_min of +inf, the
  /// interval whose demand no speed can serve (0 or a tick in [1, L]).
  Ticks s_min_argmax = 0;

  // --- Corollary 5 at `speed` (parts.reset) --------------------------------
  /// Delta_R in ticks; +inf when speed <= U_HI or the budget was exhausted.
  /// A decision report (Analyzer::fits) leaves it 0 for an infinite dwell
  /// budget, which every Delta_R fits, and reports a lower bound definitely
  /// past a finite budget once the search proves that.
  double delta_r = 0.0;
  /// False when max_breakpoints was exhausted (delta_r then +inf) or when
  /// delta_r is a decision report's lower bound.
  bool delta_r_exact = true;

  // --- verdicts ------------------------------------------------------------
  bool lo_schedulable = false;      ///< LO mode at unit speed (parts.lo)
  bool hi_schedulable = false;      ///< hi_schedulable_at(speed) (parts.speedup)
  bool system_schedulable = false;  ///< both of the above

  // --- context + work counters ---------------------------------------------
  double speed = 1.0;  ///< the speed the report was computed for
  double u_lo = 0.0;   ///< total LO-mode utilization
  double u_hi = 0.0;   ///< total HI-mode utilization
  /// Per-consumer work: the merged ticks charged to the Theorem 2 (resp.
  /// Corollary 5) search, i.e. those tagged for it and reached while it was
  /// still open (Corollary 5 also counts its step past the last breakpoint).
  std::size_t speedup_breakpoints = 0;
  std::size_t reset_breakpoints = 0;
  /// Distinct merged ticks the fused sweep actually evaluated; always
  /// <= speedup_breakpoints + reset_breakpoints (shared ticks count once).
  std::size_t fused_breakpoints = 0;
  /// Breakpoints visited by the LO-mode demand test.
  std::size_t lo_breakpoints = 0;

  /// The one HI-mode verdict (Theorem 2): speed `s` suffices iff the proven
  /// upper bound on s_min (plus the error bound when inexact) is at most `s`
  /// within kSpeedTol. An s_min of +inf fails every finite speed.
  [[nodiscard]] bool hi_schedulable_at(double s) const {
    return approx_le(s_min_exact ? s_min : s_min + s_min_error_bound, s, kSpeedTol);
  }
};

/// The one resetting-time verdict (Corollary 5): `delta_r` fits a budget of
/// `max_reset` ticks within kTimeTol. A +inf Delta_R never fits a finite
/// budget; an infinite budget admits anything.
[[nodiscard]] constexpr bool within_reset_budget(double delta_r, double max_reset) {
  return approx_le(delta_r, max_reset, kTimeTol);
}

/// The facade. Stateless, hence freely shareable: `analyze()` is a pure
/// function of its arguments and may be called from any number of threads
/// concurrently (the campaign engine relies on this). Each call runs
/// analyze_tasks over request.set with a storage of its own.
class Analyzer {
 public:

  /// Runs the requested sub-analyses under `request.limits`. Errors (rather
  /// than asserting or silently coercing) on a non-positive or non-finite
  /// speed, a latency outside [0, kInfTicks) and on degenerate limits.
  [[nodiscard]] Expected<AnalysisReport> analyze(const AnalysisRequest& request) const;

  /// Convenience overload borrowing `set` (no copy), under default limits.
  [[nodiscard]] Expected<AnalysisReport> analyze(const TaskSet& set, double speed = 1.0,
                                                 const AnalysisParts& parts = {}) const;

  /// The decision question: does `request` fit its speeds and a dwell budget
  /// of `max_reset` ticks, under `request.limits`? Answers with the same
  /// lo_schedulable, hi_schedulable and within_reset_budget(delta_r,
  /// max_reset) verdicts as analyze(request), from one fused sweep that stops
  /// as soon as they are known. The LO-mode test runs first and alone; a set
  /// it rejects is answered by it (hi_schedulable keeps its default, false).
  /// The Theorem 2 search stops once its bracket [best ratio, U_HI + K/Delta]
  /// decides hi_schedulable_at(speed), and reports that bracket as an inexact
  /// s_min. The Corollary 5 search runs only for a finite budget, and stops
  /// once a segment starts definitely past it. Errors as analyze() does.
  [[nodiscard]] Expected<AnalysisReport> fits(const AnalysisRequest& request,
                                              double max_reset) const;
};

/// Free-function form of the facade for one-off calls.
[[nodiscard]] Expected<AnalysisReport> analyze(const AnalysisRequest& request);

struct AnalysisStorage;  // core/analysis_storage.hpp

/// The span entry point, and the library's one analysis implementation:
/// runs `request`'s sub-analyses over `tasks` -- every field of the request
/// but its set, which is not read -- and builds its tables in `storage`.
/// Without `max_reset` it is Analyzer::analyze(request); with one, it is
/// Analyzer::fits(request, *max_reset). The report equals theirs for
/// request.set = tasks, bit for bit and counters included, however the
/// storage was used before. A call that succeeds allocates nothing once the
/// storage has held a set as large.
///
/// Precondition: `tasks` satisfy the model (McTask::validate is empty for
/// each): the tasks of a TaskSet, or tasks built by McTask's factories from
/// valid parameters -- such as a copy of a set's tasks with LO tasks
/// terminated in place (core/resilience.hpp's find_fallback). Nothing here
/// checks it. Errors as Analyzer::analyze does.
[[nodiscard]] Expected<AnalysisReport> analyze_tasks(std::span<const McTask> tasks,
                                                     const AnalysisRequest& request,
                                                     AnalysisStorage& storage,
                                                     std::optional<double> max_reset = std::nullopt);

}  // namespace rbs
