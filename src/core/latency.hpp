// DVFS transition latency.
//
// Real frequency scaling is not instantaneous: after the mode switch the
// processor keeps running at nominal speed for a transition latency L
// (voltage ramp, PLL relock -- typically tens of microseconds) before the
// boost takes effect. The HI-mode supply in an interval of length Delta
// starting at the switch is then
//
//     supply(Delta) = Delta + max(0, Delta - L) * (s - 1)        (s >= 1)
//
// instead of s * Delta. This module redoes Theorem 2 and Corollary 5 under
// that supply:
//
//   * min_speedup_with_latency -- the least s >= 1 with
//     sum DBF_HI(Delta) <= supply(Delta) for all Delta; requires the demand
//     up to L to fit at nominal speed (infinite otherwise, since no s
//     helps before the boost arrives);
//   * resetting_time_with_latency -- the first crossing of sum ADB_HI with
//     supply(Delta).
//
// Both reuse the exact breakpoint machinery; at L = 0 they coincide with
// the zero-latency results (for s >= 1). The simulator's
// SimConfig::speed_change_latency implements the runtime side.
#pragma once

#include "core/task.hpp"

namespace rbs {

struct LatencySpeedupReport {
  /// Least sufficient boost factor (>= 1); +inf when demand within the
  /// latency window already overflows nominal speed.
  double s_min = 1.0;
  bool exact = true;
  double error_bound = 0.0;
  Ticks argmax = 0;
};

/// Theorem 2 under transition latency `latency` (ticks, >= 0).
LatencySpeedupReport min_speedup_with_latency(const TaskSet& set, Ticks latency);

/// Corollary 5 under transition latency; +inf when s <= U_HI or the demand
/// never fits. `s` must be >= 1.
double resetting_time_with_latency(const TaskSet& set, double s, Ticks latency);

}  // namespace rbs
