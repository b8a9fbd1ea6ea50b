// Multicore resilience: k-failure tolerance of a partitioned system.
//
// A partitioned deployment (core/partition.hpp) runs the paper's protocol
// independently per core, each core boosting on its own overruns within its
// own CoreBudget {hi_speedup, max_reset}. Two per-core fault classes thread
// the single-core fault model (sim/faults.hpp) through the partition:
//
//   * kFailStop     -- the core dies (FaultPlan::core_fail_at): its LO tasks
//                      are lost, its HI tasks must find a new home;
//   * kBoostDenied  -- the core keeps running but its DVFS boost is denied
//                      for every episode (FaultPlan::boost_denied_on_core):
//                      the core first tries to save its HI tasks locally by
//                      terminating LO tasks in tiers (core/resilience.hpp's
//                      find_fallback at s' = lo_speed); only when no tier
//                      suffices do its HI tasks migrate off.
//
// The analysis enumerates every set of <= k faulted cores crossed with both
// fault classes and precomputes, offline, a *spare assignment* for
// each scenario: HI tasks of faulted cores migrate -- largest HI-mode
// utilization first -- onto surviving, non-denied cores, each receiver
// re-certified against its OWN budget by the Analyzer facade's verdicts
// (LO-mode at lo_speed, `hi_schedulable` at hi_speedup, `within_reset_budget`
// against max_reset), asked as decision questions (Analyzer::fits, through
// its span entry analyze_tasks) that stop as soon as the verdict is known.
// One AnalysisStorage and one task vector serve every check of a call, so no
// receiver or fallback tier builds a TaskSet. A receiver that cannot take a task
// outright may shed its own LO service instead: the same find_fallback tiers
// are tried, and the terminated LO tasks are reported as ShedSteps. The
// system is k-tolerant iff the nominal partition is feasible and every
// scenario admits a feasible spare assignment. The nominal verdict is one
// decision question per core too; the core margins (s_min, Delta_R) of a
// partition are PartitionResult's.
//
// Everything is deterministic: scenario order (subset-lexicographic, then
// class digits), migration-pool order (decreasing U(HI), parameter-tuple
// ties, then global index) and receiver preference (smallest current U(HI),
// then core index) are pure functions of the request, so the online migrator
// (sim/multicore.hpp) replays the exact plan the verdict certified.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/partition.hpp"
#include "core/resilience.hpp"
#include "core/task.hpp"
#include "support/status.hpp"

namespace rbs::multi {

/// How a core fails in one scenario.
enum class CoreFaultClass : std::uint8_t {
  kFailStop = 0,   ///< the core dies; its in-flight work is lost
  kBoostDenied,    ///< the core runs on, but every boost episode is denied
};

[[nodiscard]] std::string to_string(CoreFaultClass fault_class);

/// One precomputed migration: HI task `task` (global index) moves from the
/// faulted core to a surviving receiver.
struct MigrationStep {
  std::size_t task = 0;
  std::size_t from_core = 0;
  std::size_t to_core = 0;
};

/// One precomputed degradation: LO task `task` (global index) on `core` is
/// terminated in HI mode (Eq. 3) so the core can absorb migrated or
/// unboosted HI work.
struct ShedStep {
  std::size_t task = 0;
  std::size_t core = 0;
};

/// Verdict and spare assignment for one set of faulted cores.
struct FailureScenario {
  std::vector<std::size_t> faulted;       ///< faulted core indices, ascending
  std::vector<CoreFaultClass> classes;    ///< parallel to `faulted`
  /// Every displaced HI task found a budget-respecting home.
  bool feasible = false;
  /// Spare assignment, in the deterministic order the migrator applies it.
  std::vector<MigrationStep> migrations;
  /// LO tasks terminated in HI mode on surviving cores (fallback tiers).
  std::vector<ShedStep> degraded_lo;
  /// LO tasks lost outright with a fail-stopped core (global indices).
  std::vector<std::size_t> lost_lo;
};

/// Everything analyze_resilience learns about one partitioned system.
struct MultiReport {
  std::size_t cores = 0;
  std::size_t tolerance = 0;       ///< the k the verdict is for
  /// Every core feasible with no fault: for each core, the facade's verdicts
  /// under its budget, system_schedulable and within_reset_budget(delta_r,
  /// max_reset), as Analyzer::analyze of the core's set at hi_speedup and
  /// lo_speed gives them.
  bool nominal_feasible = false;
  /// The headline verdict: nominal_feasible and every enumerated scenario
  /// admits a feasible spare assignment.
  bool tolerant = false;
  /// Every enumerated scenario with its precomputed spare assignment, in
  /// deterministic order (subset-lexicographic, then class digits).
  std::vector<FailureScenario> scenarios;
  std::size_t scenarios_checked = 0;
  std::size_t scenarios_infeasible = 0;
  /// Work counter: feasibility checks run through the facade. A receiver's
  /// LO-mode probe and the verdict on its unmodified set count as one check;
  /// consulting the fallback tiers when that set does not fit, one more.
  std::size_t analyzer_calls = 0;
};

/// One self-contained unit of resilience-analysis work.
struct MultiRequest {
  TaskSet set;
  /// assignment[c] lists global task indices on core c; must be an exact
  /// partition of [0, set.size()).
  std::vector<std::vector<std::size_t>> assignment;
  /// Per-core budgets; size must equal assignment.size().
  std::vector<CoreBudget> budgets;
  /// Tolerate every combination of up to `tolerance` faulted cores. Must be
  /// < cores (at least one survivor). 0 checks only the nominal partition.
  std::size_t tolerance = 1;
  double lo_speed = 1.0;  ///< LO-mode speed (and a denied core's ceiling)
  /// Limits of every facade call, the fallback tiers' Delta_R included.
  AnalysisLimits limits;
  /// Upper bound on enumerated scenarios; exceeding it is an error rather
  /// than a silently truncated verdict.
  std::size_t max_scenarios = 4096;
};

/// The facade. Pure function of the request; errors (rather than asserting)
/// on malformed partitions, budgets, or a scenario space over max_scenarios.
[[nodiscard]] Expected<MultiReport> analyze_resilience(const MultiRequest& request);

/// Checks MultiRequest::assignment's contract: `assignment` is an exact
/// partition of [0, n), every index in range and on exactly one core. The
/// error names the first violation after `prefix` ("multi: ...").
[[nodiscard]] Status check_partition(const std::vector<std::vector<std::size_t>>& assignment,
                                     std::size_t n, const std::string& prefix);

/// Looks up the precomputed scenario for an exact faulted-core set (ascending
/// indices, parallel classes); nullptr when not enumerated.
[[nodiscard]] const FailureScenario* find_scenario(const MultiReport& report,
                                                   const std::vector<std::size_t>& faulted,
                                                   const std::vector<CoreFaultClass>& classes);

}  // namespace rbs::multi
