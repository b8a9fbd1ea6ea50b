// Fault injection for the HI-mode speedup mechanism.
//
// The paper's guarantees (Theorems 2/4, Corollary 5) assume the boost
// engages instantly and fully at every mode switch. The hardware mechanisms
// it names -- Turbo Boost, DVFS overclocking -- are exactly the ones that
// fail under thermal and power caps. A `FaultPlan` attached to `SimConfig`
// makes the simulator exercise those failures:
//
//   * boost denied   -- the episode runs entirely at `lo_speed`;
//   * boost late     -- extra engagement latency on top of
//                       `speed_change_latency`;
//   * partial boost  -- the achieved speed is some s' < `hi_speed`;
//   * throttle-down  -- the boost engages but collapses mid-episode (thermal
//                       budget exhausted) to a lower speed until the reset;
//   * delayed overrun detection -- the execution-budget monitor polls every
//     delta ticks instead of trapping the C(LO) crossing instantaneously, so
//     HI jobs run past their budget in LO mode before the switch happens (or
//     complete undetected).
//
// Faults are scriptable per HI-mode episode (entry i of `episodes` applies
// to the i-th mode switch) and/or drawn per episode from an independently
// seeded random stream, so failure scenarios replay bit-for-bit.
// core/resilience.hpp answers the offline question of what remains
// guaranteed under each of these faults; sim/watchdog.hpp checks every
// simulated trace against that answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gen/rng.hpp"
#include "support/status.hpp"

namespace rbs::sim {

/// The boost faults afflicting ONE HI-mode episode.
struct FaultSpec {
  /// The boost never engages: the whole episode runs at `lo_speed`.
  bool deny_boost = false;

  /// Additional engagement latency (ticks) on top of
  /// `SimConfig::speed_change_latency`.
  double extra_latency = 0.0;

  /// Partial boost: the speed actually reached (0 = full `hi_speed`).
  /// Typically < hi_speed; values above hi_speed are rejected by validation.
  double achieved_speed = 0.0;

  /// Mid-episode throttle: this long (ticks) after the mode switch ...
  double throttle_after = 0.0;
  /// ... the speed collapses to this value until the idle-instant reset
  /// (0 = back to `lo_speed`). Only meaningful when throttle_after > 0.
  double throttle_speed = 0.0;

  /// True when any per-episode fault is armed.
  bool any() const {
    return deny_boost || extra_latency > 0.0 || achieved_speed > 0.0 || throttle_after > 0.0;
  }
};

/// Per-run fault schedule injected via `SimConfig::faults`.
struct FaultPlan {
  /// Scripted faults: the i-th HI-mode episode uses episodes[i]. Episodes
  /// beyond the script fall through to the random model (below), or run
  /// fault-free; with `recycle` the script wraps around instead.
  std::vector<FaultSpec> episodes;
  bool recycle = false;

  /// Randomized per-episode faults, drawn independently for every episode
  /// the script does not cover. At most one fault class fires per episode
  /// (deny is checked first, then partial, late, throttle).
  struct Random {
    double p_deny = 0.0;
    double p_partial = 0.0;
    /// Partial boost lands at lo + f * (hi - lo), f uniform in
    /// [partial_min, partial_max] (subset of [0, 1]).
    double partial_min = 0.25;
    double partial_max = 0.75;
    double p_late = 0.0;
    double late_min = 0.0;  ///< extra latency uniform in [late_min, late_max]
    double late_max = 0.0;
    double p_throttle = 0.0;
    double throttle_after_min = 0.0;  ///< throttle onset uniform in this range
    double throttle_after_max = 0.0;
    /// Dedicated stream so fault draws never perturb demand/jitter draws;
    /// 0 derives a child seed from SimConfig::seed.
    std::uint64_t seed = 0;
  } random;

  /// Budget-monitor polling period delta (ticks): overruns are detected only
  /// at global times k * delta. 0 = instantaneous detection (paper model).
  double detection_period = 0.0;

  /// Fail-stop core fault: at this instant the core executing the plan dies.
  /// Every in-flight job is destroyed (counted in SimMetrics::
  /// jobs_lost_to_fault, not as deadline misses -- a dead core has no
  /// deadlines left to miss) and the run ends with SimTermination::kCoreFault.
  /// 0 (or an instant at/after the horizon) = the core never fails. Honored
  /// by the event kernel and MulticoreSim; the stepping oracle
  /// (tests/sim/reference_kernel) ignores it, so differential scenarios
  /// never schedule a core fault.
  double core_fail_at = 0.0;

  /// Permanent per-core boost denial (thermal capping of one core): EVERY
  /// HI-mode episode on this core runs entirely at lo_speed, as if each
  /// episode drew FaultSpec{deny_boost}. Resolved before the script and the
  /// random model and consumes no random draws, so flipping it on one core of
  /// a multicore run never perturbs the fault streams of the others.
  bool boost_denied_on_core = false;

  bool enabled() const {
    return detection_period > 0.0 || core_fail_at > 0.0 || boost_denied_on_core ||
           !episodes.empty() || random.p_deny > 0.0 || random.p_partial > 0.0 ||
           random.p_late > 0.0 || random.p_throttle > 0.0;
  }
};

/// Checks a plan against the speed range of the run it will be injected
/// into; every numeric field must be finite and inside its documented range.
[[nodiscard]] Status validate(const FaultPlan& plan, double lo_speed, double hi_speed);

/// Resolves the fault afflicting `episode` (0-based mode-switch index) under
/// `plan`, drawing from `rng` when the episode falls to the random model.
/// Speeds are resolved against [lo_speed, hi_speed]. Deterministic given the
/// rng state, so a replay with the same seed sees the same faults.
FaultSpec resolve_fault(const FaultPlan& plan, std::size_t episode, Rng& rng, double lo_speed,
                        double hi_speed);

}  // namespace rbs::sim
