// Fault injection for the HI-mode speedup mechanism.
//
// The paper's guarantees (Theorems 2/4, Corollary 5) assume the boost
// engages instantly and fully at every mode switch. The hardware mechanisms
// it names -- Turbo Boost, DVFS overclocking -- are exactly the ones that
// fail under thermal and power caps. A `FaultPlan` attached to `SimConfig`
// makes the simulator exercise those failures:
//
//   * boost denied   -- the episode runs entirely at the nominal speed 1;
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
// Faults are scripted per HI-mode episode (entry i of `episodes` applies to
// the i-th mode switch), so failure scenarios replay bit-for-bit; a caller
// that wants random faults draws them itself and scripts the result
// (tools/stress_protocol does).
// core/resilience.hpp answers the offline question of what remains
// guaranteed under each of these faults; sim/watchdog.hpp checks every
// simulated trace against that answer.
#pragma once

#include <cstddef>
#include <vector>

#include "support/status.hpp"

namespace rbs::sim {

/// The boost faults afflicting ONE HI-mode episode.
struct FaultSpec {
  /// The boost never engages: the whole episode runs at speed 1.
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
  /// (0 = back to speed 1). Only meaningful when throttle_after > 0.
  double throttle_speed = 0.0;

  /// True when any per-episode fault is armed.
  bool any() const {
    return deny_boost || extra_latency > 0.0 || achieved_speed > 0.0 || throttle_after > 0.0;
  }
};

/// Per-run fault schedule injected via `SimConfig::faults`.
struct FaultPlan {
  /// Scripted faults: the i-th HI-mode episode uses episodes[i]. Episodes
  /// beyond the script run fault-free; with `recycle` the script wraps
  /// around instead.
  std::vector<FaultSpec> episodes;
  bool recycle = false;

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
  /// HI-mode episode on this core runs entirely at speed 1, as if each
  /// episode were scripted FaultSpec{deny_boost}. Resolved before the script.
  bool boost_denied_on_core = false;
};

/// Checks a plan against the speed range of the run it will be injected
/// into, between the nominal speed 1 and `hi_speed`; every numeric field
/// must be finite and inside its documented range.
[[nodiscard]] Status validate(const FaultPlan& plan, double hi_speed);

/// Resolves the fault afflicting `episode` (0-based mode-switch index) under
/// `plan`: a boost-denied core denies it, else the script decides.
FaultSpec resolve_fault(const FaultPlan& plan, std::size_t episode);

}  // namespace rbs::sim
