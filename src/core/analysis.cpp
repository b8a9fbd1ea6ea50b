#include "core/analysis.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "core/adb.hpp"
#include "core/analysis_storage.hpp"
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
/// at a time. Under a transition latency L the supply past L is
/// L + s*(Delta - L), so the search maximises (demand - L)/(Delta - L) over
/// Delta > L (demand/Delta at L = 0), and inside the window (0, L] the demand
/// must fit the nominal supply Delta outright. On each linear piece of the
/// total demand both the ratio and demand - Delta are monotone, so breakpoints
/// decide them: the value or the left limit. DBF_HI jumps only upward, so the
/// left limit never beats the value and only the value is compared. L is a
/// breakpoint of the walk too (analyze_impl pushes it), so no piece straddles
/// the window's end.
struct SpeedupSearch {
  bool active = false;
  double best = 0.0;
  Ticks argmax = 0;
  double u_hi = 0.0;
  double k = 0.0;  ///< K_L: (demand - L)/(Delta - L) <= U_HI + K_L/(Delta - L)
  Ticks latency = 0;
  Ticks stop_at = 1;  ///< H + L: the supremum lies in (L, H + L] or is U_HI
  bool exact = true;
  double error_bound = 0.0;
  std::size_t visited = 0;
  RunningDemand demand;  ///< total DBF_HI; its slope at 0 is set with the sequences
  /// Decision mode (Analyzer::fits): stop once the bracket decides whether
  /// `target` suffices.
  bool deciding = false;
  double target = 0.0;

  void init(std::span<const McTask> tasks, double total_u_hi, Ticks lat) {
    if (tasks.empty()) return;  // s_min = 0, settled

    // Eq. (8) allows Delta = 0: positive demand in a zero-length interval
    // requires infinite speedup.
    if (dbf_hi_total(tasks, 0) > 0) {
      best = std::numeric_limits<double>::infinity();
      argmax = 0;
      return;
    }

    // The Delta -> inf limit of the ratio is the HI-mode utilization.
    u_hi = total_u_hi;
    latency = lat;
    // DBF_HI <= U*Delta + K with K = sum C(HI), hence demand - L <=
    // U*(Delta - L) + K_L with K_L = K + (U - 1)*L, which is K at L = 0.
    k = static_cast<double>(total_hi_wcet(tasks)) + (u_hi - 1.0) * static_cast<double>(lat);
    best = u_hi;

    // The demand repeats, shifted by U*H, every hyperperiod H; the mediant
    // inequality then confines the supremum to (L, H + L]. On overflow H is
    // kInfTicks and the envelope rules alone stop the search; with
    // L < kInfTicks the sum cannot overflow.
    stop_at = rbs::hyperperiod(tasks, Mode::HI).value_or(kInfTicks) + lat;
    active = true;
  }

  /// Evaluates the ratio at breakpoint `d`, whose DBF_HI deltas are `delta`;
  /// clears `active` once settled.
  void step(Ticks d, const TaggedBreakpointMerger::Delta& delta, const AnalysisLimits& limits,
            bool* worked) {
    if (d == 0) return;  // handled in init()
    if (d > stop_at) {  // supremum settled exactly (see init)
      active = false;
      return;
    }
    *worked = true;
    // From d on the ratio stays under the envelope U + K_L/(d - L), decreasing
    // in d while K_L >= 0 (a negative K_L keeps it below U <= best). Inside
    // the window nothing bounds what is still to come.
    const double envelope = d > latency ? u_hi + k / static_cast<double>(d - latency)
                                        : std::numeric_limits<double>::infinity();
    if (++visited > limits.max_breakpoints) {
      // Below d the ratio stays under best. A non-positive residual therefore
      // settles the supremum exactly; a positive one is the honest error
      // bound.
      const double residual = envelope - best;
      if (residual > 0) stop_inexact(residual);
      active = false;
      return;
    }
    demand.advance(d, delta);
    if (d <= latency) {
      // Only nominal speed serves the window: no boost covers demand past d.
      if (demand.value > d) {
        best = std::numeric_limits<double>::infinity();
        argmax = d;
        active = false;
      }
      return;
    }
    const double ratio =
        static_cast<double>(demand.value - latency) / static_cast<double>(d - latency);
    if (ratio > best) {
      best = ratio;
      argmax = d;
    }
    // Once the envelope drops to the best ratio seen, the supremum is settled.
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
/// at a time. The total arrived demand is linear between breakpoints, and so
/// is the supply on each side of the latency kink L: Delta up to L, then
/// s*Delta - (s - 1)*L (s*Delta throughout at L = 0). L is a breakpoint of the
/// walk (analyze_impl pushes it), so each segment lies on one side of it and
/// its crossing is solved exactly (in long double).
struct ResetSearch {
  bool active = false;
  double delta_r = 0.0;
  bool exact = true;
  std::size_t visited = 0;
  long double speed = 1.0L;
  Ticks latency = 0;
  long double kink_offset = 0.0L;  ///< (s - 1)*L
  RunningDemand demand;  ///< total ADB_HI; its slope at 0 is set with the sequences
  /// Decision mode (Analyzer::fits): the dwell budget; +inf never stops.
  double budget = std::numeric_limits<double>::infinity();

  void init(std::span<const McTask> tasks, double s, double u_hi, Ticks lat,
            const AnalysisLimits& limits) {
    speed = s;
    latency = lat;
    kink_offset = (speed - 1.0L) * static_cast<long double>(lat);
    if (tasks.empty()) return;  // Delta_R = 0: nothing ever arrives

    // ADB_HI stays above U_HI*Delta; the supply, at most s*Delta (s >= 1
    // under a latency), can only catch up when s > U_HI.
    if (s <= u_hi) {
      delta_r = std::numeric_limits<double>::infinity();
      return;
    }
    demand.value = adb_hi_total(tasks, 0, limits.discard_dropped_carryover);
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
    // The supply on this segment: supply_slope*Delta - offset.
    const bool boosted = demand.at >= latency;
    const long double supply_slope = boosted ? speed : 1.0L;
    const long double offset = boosted ? kink_offset : 0.0L;
    // Condition already met at the segment start?
    if (value_at_prev <= supply_slope * prev - offset) {
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
      // when every task is dropped), and `prev` is past the kink, itself a
      // breakpoint. The supply crosses at (value + (s - 1)*L) / s.
      delta_r = static_cast<double>((value_at_prev + offset) / supply_slope);
      active = false;
      return;
    }

    // Crossing inside (prev, b):
    // value_at_prev + slope*(Delta - prev) = supply_slope*Delta - offset.
    const auto slope = static_cast<long double>(demand.slope);
    if (supply_slope > slope) {
      const long double crossing =
          (value_at_prev - slope * prev + offset) / (supply_slope - slope);
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
/// allocation, locking, I/O and throw. The stop table and the merger's arming
/// stay with the caller, in storage it owns.
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

/// A breakpoint family builder: dbf_hi_breakpoints or adb_hi_breakpoints.
using FamilyBuilder = Ticks (*)(const McTask&, unsigned, std::vector<TaggedSeq>&);

/// Appends the `family` sequences of `tasks`, tagged `mask`, to `stops` in
/// ring order: `order` lists the tasks by T(HI), so each period's sequences
/// form one run, and the few starts of a run are sorted (the merger sums
/// equal ones). Every start lies in [0, T), so a run is one ring. Returns
/// the family's summed slope just right of Delta = 0.
Ticks append_in_ring_order(std::span<const McTask> tasks,
                           std::span<const std::uint32_t> order, unsigned mask,
                           FamilyBuilder family, std::vector<TaggedSeq>& stops) {
  Ticks slope = 0;
  for (std::size_t k = 0; k < order.size();) {
    const Ticks period = tasks[order[k]].period(Mode::HI);
    const auto run = static_cast<std::ptrdiff_t>(stops.size());
    for (; k < order.size() && tasks[order[k]].period(Mode::HI) == period; ++k)
      slope += family(tasks[order[k]], mask, stops);
    std::sort(stops.begin() + run, stops.end(),
              [](const TaggedSeq& a, const TaggedSeq& b) { return a.seq.start < b.seq.start; });
  }
  return slope;
}

}  // namespace

// RBS_DET_PATH: every byte of the report is content-keyed (service cache) and
// journaled (campaign resume), so the whole reachable tree must be
// reproducible across runs, machines and --jobs counts.
//
// `max_reset` set makes it the decision question of Analyzer::fits: the LO
// test answers alone when it fails, each search stops once its verdict is
// known, and an infinite budget skips the Delta_R search.
RBS_DET_PATH Expected<AnalysisReport> analyze_tasks(std::span<const McTask> tasks,
                                                    const AnalysisRequest& request,
                                                    AnalysisStorage& storage,
                                                    std::optional<double> max_reset) {
  const double speed = request.speed;
  const double lo_speed = request.lo_speed;
  const Ticks latency = request.latency;
  const AnalysisLimits& limits = request.limits;
  AnalysisParts parts = request.parts;
  if (max_reset && !std::isfinite(*max_reset)) parts.reset = false;
  if (parts.reset && (!std::isfinite(speed) || speed <= 0.0))
    return Status::error("analyze: Delta_R needs a positive, finite speed, got " +
                         std::to_string(speed));
  if (latency < 0 || latency >= kInfTicks)
    return Status::error("analyze: latency must be in [0, kInfTicks) ticks, got " +
                         std::to_string(latency));
  // The latency models a boost ramp: nominal speed until L, s from there on.
  if (parts.reset && latency > 0 && speed < 1.0)
    return Status::error("analyze: Delta_R under a transition latency needs speed >= 1, got " +
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
  report.u_lo = total_utilization(tasks, Mode::LO);
  report.u_hi = total_utilization(tasks, Mode::HI);

  if (parts.lo) {
    EdfTestOptions options;
    options.speed = lo_speed;
    options.max_breakpoints = limits.max_breakpoints;
    storage.lo.assign(tasks);
    const EdfTestResult lo = storage.lo.test(options);
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
  if (parts.speedup) speedup.init(tasks, report.u_hi, latency);
  if (parts.reset) reset.init(tasks, speed, report.u_hi, latency, limits);

  // --- the fused sweep -----------------------------------------------------
  // Setup in the caller's storage (the stop table in ring order, each
  // search's slope at 0, the merger's rings), then the allocation-free hot
  // loop in run_fused_sweep.
  if (speedup.active || reset.active) {
    assert(tasks.size() < std::numeric_limits<std::uint32_t>::max());
    std::vector<std::uint32_t>& order = storage.order;
    order.resize(tasks.size());
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::sort(order.begin(), order.end(), [&](std::uint32_t i, std::uint32_t j) {
      const Ticks ti = tasks[i].period(Mode::HI);
      const Ticks tj = tasks[j].period(Mode::HI);
      return ti != tj ? ti < tj : i < j;
    });
    std::vector<TaggedSeq>& stops = storage.stops;
    stops.clear();
    if (speedup.active)
      speedup.demand.slope +=
          append_in_ring_order(tasks, order, kSpeedupMask, dbf_hi_breakpoints, stops);
    if (reset.active)
      reset.demand.slope +=
          append_in_ring_order(tasks, order, kResetMask, adb_hi_breakpoints, stops);
    // The supply's kink is a breakpoint of both searches: a DBF_HI piece with
    // slope > 1 can cross Delta inside the window between two of its own
    // breakpoints, and no Delta_R segment may straddle the kink. A singleton
    // is a ring of its own.
    if (latency > 0)
      stops.push_back({{latency, 0},
                       (speedup.active ? kSpeedupMask : 0u) | (reset.active ? kResetMask : 0u),
                       0,
                       0});
    storage.merger.rearm(stops);
    report.fused_breakpoints += run_fused_sweep(storage.merger, speedup, reset, limits);
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

Expected<AnalysisReport> Analyzer::analyze(const AnalysisRequest& request) const {
  AnalysisStorage storage;
  return analyze_tasks(request.set, request, storage);
}

Expected<AnalysisReport> Analyzer::analyze(const TaskSet& set, double speed,
                                           const AnalysisParts& parts) const {
  AnalysisRequest request;
  request.speed = speed;
  request.parts = parts;
  AnalysisStorage storage;
  return analyze_tasks(set, request, storage);
}

Expected<AnalysisReport> Analyzer::fits(const AnalysisRequest& request, double max_reset) const {
  AnalysisStorage storage;
  return analyze_tasks(request.set, request, storage, max_reset);
}

Expected<AnalysisReport> analyze(const AnalysisRequest& request) {
  return Analyzer().analyze(request);
}

}  // namespace rbs
