// Simulation configuration: the demand model and the runtime-protocol knobs
// shared by both simulator kernels (the production event kernel in
// sim/event_kernel.hpp and the legacy stepping kernel kept in
// tests/sim/reference_kernel.hpp for differential testing).
#pragma once

#include <cstdint>
#include <vector>

#include "core/task.hpp"
#include "sim/faults.hpp"
#include "support/status.hpp"

namespace rbs::sim {

/// How job execution demands are drawn.
struct DemandModel {
  /// Probability that a HI job overruns its C(LO) (requires C(HI) > C(LO)).
  double overrun_probability = 0.0;

  enum class OverrunShape : std::uint8_t {
    kFull,     ///< overrunning jobs demand exactly C(HI)
    kUniform,  ///< overrunning jobs demand uniform in (C(LO), C(HI)]
  };
  OverrunShape overrun_shape = OverrunShape::kFull;

  /// Non-overrunning demand is uniform in [min, max] * C(LO); the default
  /// pins every job at its full LO-criticality WCET (worst case).
  double base_fraction_min = 1.0;
  double base_fraction_max = 1.0;
};

struct SimConfig {
  double horizon = 1e6;  ///< simulated time (ticks)
  double lo_speed = 1.0; ///< nominal processor speed
  double hi_speed = 1.0; ///< speed while in HI mode (the paper's s)

  DemandModel demand;

  /// Sporadic release slack: inter-arrival = T * (1 + U[0, release_jitter]).
  /// 0 gives strictly periodic (worst-case) arrivals.
  double release_jitter = 0.0;

  /// Burst separation T_O (Section IV remark): jobs released within this
  /// time of the last mode switch never overrun, modelling the assumption
  /// that overrun bursts are at least T_O apart. 0 = overruns may cluster.
  double min_overrun_separation = 0.0;
  /// First release of each task at U[0, spread * T]; 0 = synchronous at t=0.
  double initial_offset_spread = 0.0;

  /// Abort the carry-over job of a terminated LO task at the mode switch
  /// instead of letting it finish (matches AnalysisLimits).
  bool discard_dropped_carryover = false;

  /// DVFS transition latency: after the mode switch the processor keeps
  /// running at lo_speed for this long before hi_speed takes effect
  /// (matching core/latency.hpp's analysis). 0 = instantaneous boost.
  double speed_change_latency = 0.0;

  /// Turbo-budget fallback (Section IV remark): if a HI-mode episode lasts
  /// longer than this, the runtime stops overclocking -- speed returns to
  /// lo_speed and *all* LO tasks are terminated (active jobs aborted, no new
  /// releases) until the idle-instant reset. 0 disables the fallback.
  /// Offline admissibility of this protocol is check_turbo_envelope's job.
  double max_boost_duration = 0.0;

  /// Per-task earliest first-release instant: when non-empty (size must
  /// match the task set) task i's first release base becomes
  /// start_times[i] + initial offset; empty = every task starts at 0 (the
  /// historical behaviour). The multicore migrator uses this to re-release a
  /// migrated HI task on its spare core from the failure instant onward.
  /// Honored identically by both kernels, so differential scenarios may use
  /// it freely.
  std::vector<double> start_times;

  std::uint64_t seed = 1;
  bool record_trace = false;

  /// Injected boost faults (sim/faults.hpp). Default: no faults, the
  /// paper's idealized speedup mechanism.
  FaultPlan faults;

  /// Scripted arrivals: when non-empty, entry i replaces the generated
  /// release process of task i with an explicit list of jobs (ascending
  /// release times; demand in work ticks). Tasks with an empty list release
  /// nothing. The protocol still applies: releases of dropped/terminated LO
  /// tasks are deferred past HI-mode episodes. The *caller* is responsible
  /// for scripts that respect the sporadic minimum separations if analysis
  /// guarantees are to be expected. Used for deterministic regression
  /// scenarios and adversarial tightness studies.
  struct ScriptedJob {
    double release = 0.0;
    double demand = 0.0;
  };
  std::vector<std::vector<ScriptedJob>> scripted_arrivals;
};

/// Checks `config` against `set` before any event-loop work: finite positive
/// horizon and speeds, probabilities in [0, 1], non-negative latencies and
/// separations, well-formed scripted arrivals (size match, ascending release
/// times, positive finite demands) and a valid fault plan. NaN anywhere is an
/// error. Note hi_speed < lo_speed is deliberately *allowed*: the paper's
/// Example 1 shows systems that slow down in HI mode (s_min < 1).
[[nodiscard]] Status validate_config(const TaskSet& set, const SimConfig& config);

}  // namespace rbs::sim
