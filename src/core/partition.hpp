// Partitioned multiprocessor extension.
//
// The paper treats a uniprocessor; the natural deployment on a multicore
// (its "consolidation" motivation) is partitioned scheduling: assign tasks
// to cores and run the paper's protocol independently per core, each core
// speeding up on its own overruns. A core accepts a task iff the core's set
// remains (a) LO-mode schedulable at nominal speed, (b) HI-mode schedulable
// within the per-core speedup budget s (Theorem 2), and (c) back to nominal
// within the reset budget (Corollary 5). Each placement probe is one
// decision question to the Analyzer facade (Analyzer::fits), which gives
// the same verdicts as its full analysis (`lo_schedulable`,
// `hi_schedulable`, `within_reset_budget`): the LO-mode test alone rejects
// most failing probes, and the fused sweep of the others stops as soon as
// the HI-mode and resetting-time verdicts are known. A set whose s_min sits
// on the DVFS ceiling up to rounding noise is accepted, and one whose s_min
// or Delta_R is +inf never is. The reported per-core s_min and Delta_R come
// from one Theorem 2 + Corollary 5 analysis of each final core set (its LO
// mode was the last accepted probe's). The probes and final analyses run
// through analyze_tasks on spans of the bins, over one caller-owned
// AnalysisStorage (core/analysis_storage.hpp) for the whole call.
//
// First-fit decreasing (by LO+HI utilization) is the standard bin-packing
// heuristic for this feasibility predicate. The decreasing order is fully
// deterministic and invariant under renaming and permutation of the input:
// ties in total utilization break on the parameter tuple
//   (criticality, C(LO), C(HI), D(LO), D(HI), T(LO), T(HI))
// ascending -- a pure function of the task's numbers, never its name or
// position -- and only tasks with *identical* tuples (interchangeable for
// every analysis) fall back to input order. The weight comparison itself is
// exact, not tolerance-based: an approximate "equal" is not transitive and
// would break the strict weak ordering std::stable_sort requires.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <tuple>
#include <vector>

#include "core/task.hpp"

namespace rbs {

/// The renaming/permutation-invariant sort key breaking utilization ties, a
/// pure function of the task's numeric parameters:
///   (criticality (HI first), C(LO), C(HI), D(LO), D(HI), T(LO), T(HI)).
/// Tasks with identical keys are interchangeable for every analysis in this
/// library, so falling back to input order among them cannot change any
/// verdict. Shared by the FFD order here and the migration pool of
/// multi/resilience.hpp.
using TieKey = std::tuple<int, Ticks, Ticks, Ticks, Ticks, Ticks, Ticks>;
[[nodiscard]] TieKey tie_key(const McTask& task);

/// The speedup/reset budget of one core. Heterogeneous multicores (big.LITTLE
/// style) give each core its own DVFS ceiling and thermal envelope; the
/// resilience analysis (multi/resilience.hpp) re-checks migrated work against
/// the *receiving* core's budget, never the source's.
struct CoreBudget {
  /// HI-mode speedup budget (the DVFS ceiling of this core).
  double hi_speedup = 2.0;
  /// Resetting-time budget at hi_speedup, in ticks (thermal limit).
  double max_reset = std::numeric_limits<double>::infinity();
};

struct PartitionOptions {
  /// Per-core HI-mode speedup budget (the DVFS ceiling of each core), used
  /// for every core when `core_budgets` is empty.
  double hi_speedup = 2.0;
  /// Per-core resetting-time budget at hi_speedup, in ticks (thermal limit),
  /// used for every core when `core_budgets` is empty.
  double max_reset = std::numeric_limits<double>::infinity();
  /// Heterogeneous budgets: when non-empty, core c uses core_budgets[c] and
  /// the vector's size must equal the core count (a mismatch makes
  /// partition_first_fit return an infeasible result rather than guessing).
  std::vector<CoreBudget> core_budgets;
};

struct PartitionResult {
  bool feasible = false;
  /// assignment[c] lists input indices of the tasks placed on core c.
  std::vector<std::vector<std::size_t>> assignment;
  /// Required speedup of each core's final set (0 for an empty core).
  std::vector<double> core_s_min;
  /// Resetting time of each core's final set at its budget speed, in ticks
  /// (0 for an empty core). Together with core_s_min these are the margins
  /// the resilience analysis starts from.
  std::vector<double> core_delta_r;
  /// Index of the first task that fit nowhere (when infeasible).
  std::optional<std::size_t> rejected_task;
};

/// Effective budget of core `c` under `options` (uniform or heterogeneous).
CoreBudget core_budget(const PartitionOptions& options, std::size_t c);

/// First-fit decreasing partitioning of `set` onto `cores` cores.
PartitionResult partition_first_fit(const TaskSet& set, std::size_t cores,
                                    const PartitionOptions& options = {});

/// Smallest number of cores (<= max_cores) for which partitioning succeeds;
/// nullopt if even max_cores fails. Heterogeneous `core_budgets` are not
/// meaningful here (the core count varies), so only the uniform budgets are
/// consulted.
std::optional<std::size_t> cores_needed(const TaskSet& set, std::size_t max_cores,
                                        const PartitionOptions& options = {});

}  // namespace rbs
