#include "core/latency.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/adb.hpp"
#include "core/analysis.hpp"
#include "core/breakpoints.hpp"
#include "core/dbf.hpp"

namespace rbs {

namespace {

// Required boost at interval length delta (> latency), given total demand.
double required_boost(double demand, double delta, double latency) {
  return 1.0 + std::max(0.0, demand - delta) / (delta - latency);
}

}  // namespace

LatencySpeedupReport min_speedup_with_latency(const TaskSet& set, Ticks latency) {
  assert(latency >= 0);
  LatencySpeedupReport result;
  if (set.empty()) return result;

  // Demand at Delta = 0 needs infinite speed regardless of latency.
  if (dbf_hi_total(set, 0) > 0) {
    result.s_min = std::numeric_limits<double>::infinity();
    return result;
  }

  const double u_hi = set.total_utilization(Mode::HI);
  const double k = static_cast<double>(set.total_hi_wcet());
  const auto lat = static_cast<double>(latency);

  // Hyperperiod stop (the mediant argument of Theorem 2 carries over).
  const Ticks hyperperiod = rbs::hyperperiod(set, Mode::HI).value_or(kInfTicks);

  double best = std::max(1.0, u_hi);
  Ticks argmax = 0;

  std::vector<TaggedSeq> seqs;
  RunningDemand total;  // DBF_HI, 0 at Delta = 0 (checked above)
  for (const McTask& t : set) total.slope += dbf_hi_breakpoints(t, 1u, seqs);
  TaggedBreakpointMerger merger(std::move(seqs));

  // DBF_HI jumps only upward, so its left limits never exceed its values and
  // (required_boost being non-decreasing in the demand) never win: only the
  // values are checked.
  std::size_t visited = 0;
  while (const auto point = merger.next()) {
    const Ticks d = point->tick;
    if (d == 0) continue;
    if (d > hyperperiod + latency) break;
    total.advance(d, point->delta[0]);
    const auto delta = static_cast<double>(d);
    const auto demand = static_cast<double>(total.value);
    if (d <= latency) {
      // Nominal-speed feasibility inside the window: the demand (piecewise
      // linear with slopes possibly > 1) may cross the supply line Delta
      // only at a breakpoint value.
      if (demand > delta) {
        result.s_min = std::numeric_limits<double>::infinity();
        result.argmax = d;
        return result;
      }
      continue;
    }
    // Envelope for all Delta' >= Delta: demand <= U*Delta' + K gives
    //   required <= 1 + (U-1)*Delta'/(Delta'-L) + K/(Delta'-L)  (U >= 1)
    //   required <= 1 + K/(Delta'-L)                            (U <  1)
    // both decreasing in Delta', so evaluating at Delta bounds the tail.
    const double envelope =
        u_hi >= 1.0
            ? 1.0 + (u_hi - 1.0) * delta / (delta - lat) + k / (delta - lat)
            : 1.0 + k / (delta - lat);
    if (++visited > kBreakpointBudget) {
      result.exact = false;
      result.error_bound = std::max(0.0, envelope - best);
      break;
    }
    const double cand = required_boost(demand, delta, lat);
    if (cand > best) {
      best = cand;
      argmax = d;
    }
    if (envelope <= best) break;
  }

  result.s_min = best;
  result.argmax = argmax;
  return result;
}

double resetting_time_with_latency(const TaskSet& set, double s, Ticks latency) {
  assert(s >= 1.0);
  assert(latency >= 0);
  if (set.empty()) return 0.0;

  const double u_hi = set.total_utilization(Mode::HI);
  if (s <= u_hi) return std::numeric_limits<double>::infinity();

  const auto lat = static_cast<double>(latency);
  const auto supply = [&](long double delta) -> long double {
    return delta + std::max(0.0L, delta - static_cast<long double>(lat)) *
                       static_cast<long double>(s - 1.0);
  };

  std::vector<TaggedSeq> seqs;
  RunningDemand total;  // ADB_HI
  total.value = adb_hi_total(set, 0);
  if (total.value <= 0) return 0.0;
  for (const McTask& t : set) total.slope += adb_hi_breakpoints(t, 1u, seqs);
  seqs.push_back({{latency, 0}, 0});  // the supply kink is a breakpoint too
  TaggedBreakpointMerger merger(std::move(seqs));

  auto next = merger.next();
  if (next && next->tick == 0) next = merger.next();

  std::size_t visited = 0;
  while (true) {
    const Ticks prev = total.at;
    const auto value_at_prev = static_cast<long double>(total.value);
    if (++visited > kBreakpointBudget) return std::numeric_limits<double>::infinity();
    if (value_at_prev <= supply(prev)) return static_cast<double>(prev);

    if (!next) {  // constant demand beyond prev (all tasks dropped)
      // Solve value = supply(Delta) on the final piece: before the kink the
      // supply is Delta itself, past it Delta*s - L*(s-1).
      if (value_at_prev <= static_cast<long double>(lat))
        return static_cast<double>(value_at_prev);
      return static_cast<double>(
          (value_at_prev + static_cast<long double>((s - 1.0) * lat)) /
          static_cast<long double>(s));
    }

    const Ticks b = next->tick;
    const auto demand_slope = static_cast<long double>(total.slope);
    const long double supply_slope = prev >= latency ? static_cast<long double>(s) : 1.0L;

    if (supply_slope > demand_slope) {
      // value_at_prev + m*(D - prev) = supply(prev) + slope*(D - prev)
      const long double gap = value_at_prev - supply(prev);
      const long double crossing =
          static_cast<long double>(prev) + gap / (supply_slope - demand_slope);
      if (crossing >= static_cast<long double>(prev) && crossing < static_cast<long double>(b))
        return static_cast<double>(crossing);
    }

    total.advance(b, next->delta[0]);
    next = merger.next();
  }
}

}  // namespace rbs
