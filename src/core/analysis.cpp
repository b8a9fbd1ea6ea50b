#include "core/analysis.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/adb.hpp"
#include "core/breakpoints.hpp"
#include "core/dbf.hpp"
#include "core/edf.hpp"
#include "support/det_annotations.hpp"
#include "support/rt_annotations.hpp"

namespace rbs {

namespace {

constexpr unsigned kSpeedupConsumer = 0;
constexpr unsigned kResetConsumer = 1;
constexpr unsigned kSpeedupMask = 1u << kSpeedupConsumer;
constexpr unsigned kResetMask = 1u << kResetConsumer;
static_assert(kResetConsumer < kMergerConsumers);

/// State of the Theorem 2 ratio maximisation, advanced one DBF_HI breakpoint
/// at a time. On each linear piece of the total demand the ratio demand/Delta
/// is monotone, so the supremum is attained at a breakpoint: its value or its
/// left limit. DBF_HI jumps only upward, so the left limit never beats the
/// value and only the value is compared.
struct SpeedupSearch {
  bool active = false;
  double best = 0.0;
  Ticks argmax = 0;
  double u_hi = 0.0;
  double k = 0.0;
  Ticks hyperperiod = 1;
  bool exact = true;
  double error_bound = 0.0;
  std::size_t visited = 0;
  RunningDemand demand;  ///< total DBF_HI; its slope at 0 is set with the sequences
  /// Decision mode (Analyzer::fits): stop once the bracket decides whether
  /// `target` suffices.
  bool deciding = false;
  double target = 0.0;

  void init(const TaskSet& set, double total_u_hi) {
    if (set.empty()) return;  // s_min = 0, settled

    // Eq. (8) allows Delta = 0: positive demand in a zero-length interval
    // requires infinite speedup.
    if (dbf_hi_total(set, 0) > 0) {
      best = std::numeric_limits<double>::infinity();
      argmax = 0;
      return;
    }

    // The Delta -> inf limit of demand/Delta is the HI-mode utilization.
    u_hi = total_u_hi;
    k = static_cast<double>(set.total_hi_wcet());  // DBF_HI <= U*Delta + K
    best = u_hi;

    // The demand repeats, shifted by U*H, every hyperperiod H; the mediant
    // inequality then confines the supremum to (0, H]. On overflow H is
    // kInfTicks and the envelope rules alone stop the search.
    hyperperiod = rbs::hyperperiod(set, Mode::HI).value_or(kInfTicks);
    active = true;
  }

  /// Evaluates the ratio at breakpoint `d`, whose DBF_HI deltas are `delta`;
  /// clears `active` once settled.
  void step(Ticks d, const TaggedBreakpointMerger::Delta& delta, const AnalysisLimits& limits,
            bool* worked) {
    if (d == 0) return;  // handled in init()
    if (d > hyperperiod) {  // supremum settled exactly (see init)
      active = false;
      return;
    }
    *worked = true;
    if (++visited > limits.max_breakpoints) {
      // From d on the ratio stays under the envelope U + K/d, and below d
      // under best. A non-positive residual therefore settles the supremum
      // exactly; a positive one is the honest error bound.
      const double residual = (u_hi + k / static_cast<double>(d)) - best;
      if (residual > 0) stop_inexact(residual);
      active = false;
      return;
    }
    demand.advance(d, delta);
    const double ratio = static_cast<double>(demand.value) / static_cast<double>(d);
    if (ratio > best) {
      best = ratio;
      argmax = d;
    }
    // Beyond Delta, demand/Delta <= U + K/Delta; once that envelope drops to
    // the best ratio seen, the supremum is settled.
    const double envelope = u_hi + k / static_cast<double>(d);
    const double slack = envelope - best;
    if (slack <= 0) {
      active = false;
      return;
    }
    // The supremum lies in [best, envelope]. A decision is known once both
    // ends give the same verdict: best definitely above the target rejects,
    // an envelope at most the target (within kSpeedTol) accepts.
    const bool decided = deciding && approx_le(best, target, kSpeedTol) ==
                                         approx_le(envelope, target, kSpeedTol);
    if (decided || slack <= limits.rel_tol * best) stop_inexact(slack);
  }

  void stop_inexact(double residual) {
    exact = false;
    error_bound = residual;
    active = false;
  }
};

/// State of the Corollary 5 crossing search, advanced one ADB_HI breakpoint
/// at a time. The total arrived demand is linear between breakpoints, so the
/// crossing with the supply line s*Delta is solved exactly (in long double)
/// on each segment.
struct ResetSearch {
  bool active = false;
  double delta_r = 0.0;
  bool exact = true;
  std::size_t visited = 0;
  long double speed = 1.0L;
  RunningDemand demand;  ///< total ADB_HI; its slope at 0 is set with the sequences
  /// Decision mode (Analyzer::fits): the dwell budget; +inf never stops.
  double budget = std::numeric_limits<double>::infinity();

  void init(const TaskSet& set, double s, double u_hi, const AnalysisLimits& limits) {
    speed = s;
    if (set.empty()) return;  // Delta_R = 0: nothing ever arrives

    // ADB_HI grows asymptotically at rate U_HI; the supply s*Delta can only
    // catch up when s > U_HI.
    if (s <= u_hi) {
      delta_r = std::numeric_limits<double>::infinity();
      return;
    }
    demand.value = adb_hi_total(set, 0, limits.discard_dropped_carryover);
    if (demand.value <= 0) return;  // all carry-over discarded, no demand
    active = true;
  }

  /// Advances over the segment ending at breakpoint `b` (nullopt: the demand
  /// is constant beyond the last one), whose ADB_HI deltas are `delta`;
  /// clears `active` once the crossing is found.
  void step(std::optional<Ticks> b, const TaggedBreakpointMerger::Delta& delta,
            const AnalysisLimits& limits, bool* worked) {
    if (b && *b == 0) return;  // the leading 0 breakpoint is consumed for free
    *worked = true;
    if (++visited > limits.max_breakpoints) {
      delta_r = std::numeric_limits<double>::infinity();
      exact = false;
      active = false;
      return;
    }

    const auto value_at_prev = static_cast<long double>(demand.value);
    const auto prev = static_cast<long double>(demand.at);
    // Condition already met at the segment start?
    if (value_at_prev <= speed * prev) {
      delta_r = static_cast<double>(prev);
      active = false;
      return;
    }
    // Not met at the segment start, so Delta_R > prev: a start definitely
    // past the budget decides the verdict, with prev as the lower bound.
    if (definitely_gt(static_cast<double>(prev), budget, kTimeTol)) {
      delta_r = static_cast<double>(prev);
      exact = false;
      active = false;
      return;
    }

    if (!b) {
      // No further breakpoints: demand is constant beyond `prev` (possible
      // when every task is dropped). The supply line crosses at value / s.
      delta_r = static_cast<double>(value_at_prev / speed);
      active = false;
      return;
    }

    // Crossing inside (prev, b): value_at_prev + slope*(Delta - prev) = s*Delta.
    const auto slope = static_cast<long double>(demand.slope);
    if (speed > slope) {
      const long double crossing = (value_at_prev - slope * prev) / (speed - slope);
      if (crossing >= prev && crossing < static_cast<long double>(*b)) {
        delta_r = static_cast<double>(crossing);
        active = false;
        return;
      }
    }

    demand.advance(*b, delta);
  }
};

/// The fused sweep proper: one merged walk over both breakpoint families.
/// Sequences are tagged with the consumer they serve; a tick evaluates only
/// the consumers that are both tagged on it and still searching, so a settled
/// consumer costs nothing and shared ticks are fetched from the heap once.
/// Each consumer updates its running demand from the deltas the merger summed
/// for it, so a tick costs O(1) per popped sequence, not O(n).
/// Returns the number of breakpoints that did real work.
///
/// This loop dominates every analysis call, so it is RBS_HOT_PATH: rbs_lint's
/// rt pass keeps the whole reachable tree (merger, both searches) free of
/// allocation, locking, I/O and throw. The merger and tagged-sequence setup
/// stays with the caller -- building those vectors is the one-time cold part.
RBS_HOT_PATH std::size_t run_fused_sweep(TaggedBreakpointMerger& merger, SpeedupSearch& speedup,
                                         ResetSearch& reset, const AnalysisLimits& limits) {
  std::size_t fused = 0;
  while (speedup.active || reset.active) {
    const auto point = merger.next();
    if (!point) break;
    bool worked = false;
    if (speedup.active && (point->mask & kSpeedupMask) != 0)
      speedup.step(point->tick, point->delta[kSpeedupConsumer], limits, &worked);
    if (reset.active && (point->mask & kResetMask) != 0)
      reset.step(point->tick, point->delta[kResetConsumer], limits, &worked);
    if (worked) ++fused;
  }
  // Merger exhausted with the crossing still open: the demand is constant
  // past the last breakpoint.
  if (reset.active) {
    bool worked = false;
    reset.step(std::nullopt, {}, limits, &worked);
    if (worked) ++fused;
  }
  return fused;
}

// RBS_DET_PATH: every byte of the report is content-keyed (service cache) and
// journaled (campaign resume), so the whole reachable tree must be
// reproducible across runs, machines and --jobs counts.
//
// `max_reset` set makes it the decision question of Analyzer::fits: the LO
// test answers alone when it fails, each search stops once its verdict is
// known, and an infinite budget skips the Delta_R search.
RBS_DET_PATH Expected<AnalysisReport> analyze_impl(const TaskSet& set, double speed,
                                                   double lo_speed, AnalysisParts parts,
                                                   const AnalysisLimits& limits,
                                                   std::optional<double> max_reset) {
  if (max_reset && !std::isfinite(*max_reset)) parts.reset = false;
  if (parts.reset && (!std::isfinite(speed) || speed <= 0.0))
    return Status::error("analyze: Delta_R needs a positive, finite speed, got " +
                         std::to_string(speed));
  if (parts.lo && (!std::isfinite(lo_speed) || lo_speed <= 0.0))
    return Status::error("analyze: lo_speed must be positive and finite, got " +
                         std::to_string(lo_speed));
  if (limits.max_breakpoints == 0)
    return Status::error("analyze: max_breakpoints must be positive");
  if (!(limits.rel_tol >= 0.0) || !std::isfinite(limits.rel_tol))
    return Status::error("analyze: rel_tol must be finite and non-negative");

  AnalysisReport report;
  report.speed = speed;
  report.u_lo = set.total_utilization(Mode::LO);
  report.u_hi = set.total_utilization(Mode::HI);

  if (parts.lo) {
    EdfTestOptions options;
    options.speed = lo_speed;
    options.max_breakpoints = limits.max_breakpoints;
    const EdfTestResult lo = lo_mode_test(set, options);
    report.lo_schedulable = lo.schedulable;
    report.lo_breakpoints = lo.breakpoints_visited;
    if (max_reset && !lo.schedulable) return report;
  }

  SpeedupSearch speedup;
  ResetSearch reset;
  if (max_reset) {
    speedup.deciding = true;
    speedup.target = speed;
    reset.budget = *max_reset;
  }
  if (parts.speedup) speedup.init(set, report.u_hi);
  if (parts.reset) reset.init(set, speed, report.u_hi, limits);

  // --- the fused sweep -----------------------------------------------------
  // Cold setup (the tagged-sequence vector, each search's slope at 0 and the
  // merger's heap), then the allocation-free hot loop in run_fused_sweep.
  if (speedup.active || reset.active) {
    std::vector<TaggedSeq> seqs;
    if (speedup.active)
      for (const McTask& t : set)
        speedup.demand.slope += dbf_hi_breakpoints(t, kSpeedupMask, seqs);
    if (reset.active)
      for (const McTask& t : set)
        reset.demand.slope += adb_hi_breakpoints(t, kResetMask, seqs);
    TaggedBreakpointMerger merger(std::move(seqs));
    report.fused_breakpoints += run_fused_sweep(merger, speedup, reset, limits);
  }

  if (parts.speedup) {
    report.s_min = speedup.best;
    report.s_min_exact = speedup.exact;
    report.s_min_error_bound = speedup.error_bound;
    report.s_min_argmax = speedup.argmax;
    report.speedup_breakpoints = speedup.visited;
    report.hi_schedulable = report.hi_schedulable_at(speed);
  }
  if (parts.reset) {
    report.delta_r = reset.delta_r;
    report.delta_r_exact = reset.exact;
    report.reset_breakpoints = reset.visited;
  }
  report.system_schedulable = report.lo_schedulable && report.hi_schedulable;
  return report;
}

}  // namespace

Expected<AnalysisReport> Analyzer::analyze(const AnalysisRequest& request) const {
  return analyze_impl(request.set, request.speed, request.lo_speed, request.parts,
                      request.limits, std::nullopt);
}

Expected<AnalysisReport> Analyzer::analyze(const TaskSet& set, double speed,
                                           const AnalysisParts& parts) const {
  return analyze_impl(set, speed, 1.0, parts, limits_, std::nullopt);
}

Expected<AnalysisReport> Analyzer::fits(const AnalysisRequest& request, double max_reset) const {
  return analyze_impl(request.set, request.speed, request.lo_speed, request.parts,
                      request.limits, max_reset);
}

Expected<AnalysisReport> analyze(const AnalysisRequest& request) {
  return Analyzer().analyze(request);
}

}  // namespace rbs
