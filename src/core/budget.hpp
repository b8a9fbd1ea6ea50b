// Turbo-budget analysis (Section IV remark + the Intel Turbo Boost envelope
// of Section I).
//
// Processor overclocking is regulated by power/thermal management: e.g.
// "Intel turbo boost technology would allow a maximum of 2x speedup for
// around 30s" [12]. The paper argues temporary speedup fits such envelopes:
//
//   * each boost episode lasts at most Delta_R(s) (Corollary 5);
//   * if overrun bursts are separated by at least T_O, the boost frequency
//     is bounded by 1/T_O as long as Delta_R <= T_O, so the long-run duty
//     cycle is at most Delta_R / T_O;
//   * if overruns ever keep the system boosted past the allowed budget, the
//     runtime can *terminate LO tasks instead of overclocking* to force the
//     processor back to nominal speed -- safe whenever the terminating
//     variant of the set is schedulable at speed 1.
//
// check_turbo_envelope performs the whole offline argument with the facade's
// verdicts; the simulator's SimConfig::max_boost_duration implements the
// runtime fallback.
#pragma once

#include "core/task.hpp"

namespace rbs {

/// A power-management envelope for temporary overclocking.
struct TurboEnvelope {
  double max_speedup = 2.0;        ///< hardware ceiling on s
  double max_boost_ticks = 0.0;    ///< longest admissible boost episode
  double min_overrun_separation = 0.0;  ///< T_O: assumed gap between bursts
                                        ///< (0 = no assumption)
};

struct TurboReport {
  bool speed_ok = false;     ///< HI mode schedulable at envelope.max_speedup
  bool duration_ok = false;  ///< Delta_R(max_speedup) within max_boost_ticks
  bool fallback_safe = false;  ///< terminating variant HI-schedulable at speed 1
  /// Envelope admissible: speed and duration fit, or the duration excess is
  /// covered by a safe termination fallback.
  bool admissible = false;

  double s_min = 0.0;
  double delta_r = 0.0;      ///< boost length at envelope.max_speedup
  /// Worst-case fraction of time spent boosted, Delta_R / T_O (NaN when no
  /// separation assumption was given or Delta_R > T_O).
  double duty_cycle = 0.0;
};

/// Replaces every LO task's HI-mode service by termination (Eq. 3); HI tasks
/// are unchanged. This is the runtime's fallback configuration.
TaskSet terminate_lo_tasks(const TaskSet& set);

/// Offline admissibility of `set` under `envelope` (see file comment).
TurboReport check_turbo_envelope(const TaskSet& set, const TurboEnvelope& envelope);

}  // namespace rbs
