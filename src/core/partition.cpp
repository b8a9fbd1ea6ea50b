#include "core/partition.hpp"

#include <algorithm>
#include <numeric>

#include "core/analysis.hpp"
#include "core/analysis_storage.hpp"
#include "support/det_annotations.hpp"

namespace rbs {

TieKey tie_key(const McTask& task) {
  return {task.is_hi() ? 0 : 1,
          task.wcet(Mode::LO),    task.wcet(Mode::HI),
          task.deadline(Mode::LO), task.deadline(Mode::HI),
          task.period(Mode::LO),  task.period(Mode::HI)};
}

CoreBudget core_budget(const PartitionOptions& options, std::size_t c) {
  if (!options.core_budgets.empty()) return options.core_budgets[c];
  return CoreBudget{options.hi_speedup, options.max_reset};
}

// RBS_DET_PATH: the multicore_k1 digest and MulticoreSim's plan replay both
// take this assignment as given, so it must be a pure function of the input.
RBS_DET_PATH PartitionResult partition_first_fit(const TaskSet& set, std::size_t cores,
                                                 const PartitionOptions& options) {
  PartitionResult result;
  if (cores == 0) return result;
  // A heterogeneous budget vector that does not match the core count is a
  // caller error; report infeasible instead of guessing which cores exist.
  if (!options.core_budgets.empty() && options.core_budgets.size() != cores) return result;
  result.assignment.assign(cores, {});
  std::vector<std::vector<McTask>> bins(cores);

  std::vector<std::size_t> order(set.size());
  std::iota(order.begin(), order.end(), 0);
  if (options.decreasing) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      // Exact weight comparison (see the header: an approximate "equal" is
      // not transitive, breaking the strict weak ordering the sort needs).
      // The weight is a pure function of the parameters, so the order is
      // already invariant under renaming; the tie key extends that
      // invariance to permutations of equal-utilization tasks.
      const double wa = set[a].utilization(Mode::LO) + set[a].utilization(Mode::HI);
      const double wb = set[b].utilization(Mode::LO) + set[b].utilization(Mode::HI);
      if (wa != wb) return wa > wb;  // rbs-lint: allow(float-eq)
      return tie_key(set[a]) < tie_key(set[b]);
    });
  }

  // Each probe is one decision question (Analyzer::fits, through its span
  // entry on the bin itself): the LO-mode test alone rejects most failing
  // probes, and the sweep of a LO-feasible one stops as soon as the HI-mode
  // and resetting-time verdicts are known. One storage serves every probe
  // and final analysis, so no probe builds a TaskSet.
  AnalysisStorage storage;
  AnalysisRequest probe;
  for (std::size_t index : order) {
    bool placed = false;
    for (std::size_t c = 0; c < cores && !placed; ++c) {
      bins[c].push_back(set[index]);
      const CoreBudget budget = core_budget(options, c);
      probe.speed = budget.hi_speedup;
      const Expected<AnalysisReport> report =
          analyze_tasks(bins[c], probe, storage, budget.max_reset);
      if (report && report->system_schedulable &&
          within_reset_budget(report->delta_r, budget.max_reset)) {
        result.assignment[c].push_back(index);
        placed = true;
      } else {
        bins[c].pop_back();
      }
    }
    if (!placed) {
      result.rejected_task = index;
      return result;
    }
  }

  // Each final core set is the set its last accepted probe passed, LO mode
  // included, and the result reports no LO verdict: the final analyses run
  // Theorem 2 and Corollary 5 alone.
  result.feasible = true;
  result.core_s_min.reserve(cores);
  result.core_delta_r.reserve(cores);
  AnalysisRequest request;
  request.parts = {.speedup = true, .reset = true, .lo = false};
  for (std::size_t c = 0; c < cores; ++c) {
    if (bins[c].empty()) {
      result.core_s_min.push_back(0.0);
      result.core_delta_r.push_back(0.0);
      continue;
    }
    request.speed = core_budget(options, c).hi_speedup;
    const Expected<AnalysisReport> report = analyze_tasks(bins[c], request, storage);
    result.core_s_min.push_back(report ? report->s_min
                                       : std::numeric_limits<double>::infinity());
    result.core_delta_r.push_back(report ? report->delta_r
                                         : std::numeric_limits<double>::infinity());
  }
  return result;
}

std::optional<std::size_t> cores_needed(const TaskSet& set, std::size_t max_cores,
                                        const PartitionOptions& options) {
  PartitionOptions uniform = options;
  uniform.core_budgets.clear();
  for (std::size_t m = 1; m <= max_cores; ++m)
    if (partition_first_fit(set, m, uniform).feasible) return m;
  return std::nullopt;
}

}  // namespace rbs
