#include "multi/resilience.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "core/analysis_storage.hpp"
#include "support/det_annotations.hpp"

namespace rbs::multi {

namespace {

// Mutable view of one core while a scenario's spare assignment is built.
struct CoreState {
  std::vector<std::size_t> tasks;  ///< global indices currently on the core
  std::vector<std::size_t> shed;   ///< LO tasks terminated (global indices)
  bool dead = false;
  bool denied = false;
  double u_hi = 0.0;     ///< running HI-mode utilization (receiver ordering)
};

// One analyze_resilience call's working state: the request, its work
// counter, and the analysis storage and task vector every core set is
// analysed in, reused from core to core and scenario to scenario.
struct Ctx {
  const MultiRequest* req = nullptr;
  std::size_t* analyzer_calls = nullptr;
  AnalysisStorage storage;
  std::vector<McTask> tasks;

  /// The tasks of the global `indices`, in order, in the reused vector.
  std::span<McTask> local_tasks(const std::vector<std::size_t>& indices) {
    tasks.clear();
    for (std::size_t g : indices) tasks.push_back(req->set[g]);
    return tasks;
  }
};

// Acceptance of the core set `indices` on a core with `budget`: the set as
// given (tier 0 of find_fallback) or its first fallback tier that passes HI
// mode, provided that tier's dwell fits the reset budget. `shed` receives
// LOCAL indices of terminated LO tasks. LO-mode schedulability gates every
// tier (termination never lowers LO-mode demand), so it runs first and
// alone. The LO test and tier 0 count as one analyzer call, the further
// tiers one.
bool accept_on_core(Ctx& ctx, const std::vector<std::size_t>& indices, const CoreBudget& budget,
                    std::vector<std::size_t>& shed) {
  shed.clear();
  const std::span<McTask> local = ctx.local_tasks(indices);
  AnalysisRequest areq;
  areq.limits = ctx.req->limits;
  areq.parts = {.speedup = false, .reset = false, .lo = true};
  ++*ctx.analyzer_calls;
  const Expected<AnalysisReport> lo = analyze_tasks(local, areq, ctx.storage);
  if (!lo || !lo->lo_schedulable) return false;
  const FallbackFit fit = find_fallback(local, budget.hi_speedup, budget.max_reset,
                                        ctx.req->limits, ctx.storage);
  const bool fits = fit.feasible && fit.within_budget;
  if (!fits || fit.fallback.tier() > 0) ++*ctx.analyzer_calls;
  if (!fits) return false;
  shed = fit.fallback.terminated;
  return true;
}

// The nominal verdict of one core: the decision question its partition
// probes ask (Analyzer::fits), whose verdicts equal the full analysis's, so
// it stops as soon as they are known. A core with no tasks is feasible.
bool nominal_feasible(Ctx& ctx, const std::vector<std::size_t>& tasks,
                      const CoreBudget& budget) {
  if (tasks.empty()) return true;
  AnalysisRequest areq;
  areq.speed = budget.hi_speedup;
  areq.limits = ctx.req->limits;
  ++*ctx.analyzer_calls;
  const Expected<AnalysisReport> report =
      analyze_tasks(ctx.local_tasks(tasks), areq, ctx.storage, budget.max_reset);
  return report && report->system_schedulable &&
         within_reset_budget(report->delta_r, budget.max_reset);
}

FailureScenario evaluate_scenario(Ctx& ctx, std::vector<std::size_t> faulted,
                                  std::vector<CoreFaultClass> classes) {
  const MultiRequest& req = *ctx.req;
  const std::size_t cores = req.assignment.size();
  FailureScenario sc;
  sc.faulted = std::move(faulted);
  sc.classes = std::move(classes);

  std::vector<CoreState> state(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    state[c].tasks = req.assignment[c];
    for (std::size_t g : state[c].tasks) state[c].u_hi += req.set[g].utilization(Mode::HI);
  }

  // Displaced HI tasks awaiting a new home: (global index, source core).
  std::vector<std::pair<std::size_t, std::size_t>> pool;
  bool feasible = true;

  for (std::size_t f = 0; f < sc.faulted.size(); ++f) {
    const std::size_t core = sc.faulted[f];
    CoreState& cs = state[core];
    if (sc.classes[f] == CoreFaultClass::kFailStop) {
      cs.dead = true;
      for (std::size_t g : cs.tasks) {
        if (req.set[g].is_hi())
          pool.emplace_back(g, core);
        else
          sc.lost_lo.push_back(g);
      }
      cs.tasks.clear();
      cs.u_hi = 0.0;
      continue;
    }
    // Boost denial: the core runs its episodes at speed 1. Try to save the
    // HI tasks locally by terminating LO service in tiers; only when no tier
    // suffices (or the degraded dwell busts the reset budget) do the HI
    // tasks migrate off. A LO-only core never enters HI mode, so denial is
    // harmless there.
    cs.denied = true;
    bool has_hi = false;
    for (std::size_t g : cs.tasks) has_hi = has_hi || req.set[g].is_hi();
    if (!has_hi) continue;
    ++*ctx.analyzer_calls;
    const FallbackFit fit = find_fallback(ctx.local_tasks(cs.tasks), 1.0,
                                          req.budgets[core].max_reset, req.limits, ctx.storage);
    if (fit.feasible && fit.within_budget) {
      for (std::size_t local : fit.fallback.terminated) cs.shed.push_back(cs.tasks[local]);
      continue;
    }
    // Strip the HI tasks; the LO remainder is a subset of a LO-schedulable
    // set and the demand bound is monotone, so no re-check is needed.
    std::vector<std::size_t> keep;
    for (std::size_t g : cs.tasks) {
      if (req.set[g].is_hi()) {
        pool.emplace_back(g, core);
      } else {
        keep.push_back(g);
      }
    }
    cs.tasks = std::move(keep);
    cs.u_hi = 0.0;
  }

  // Deterministic pool order: decreasing U(HI), parameter-tuple ties, then
  // global index. The weight comparison is exact (see core/partition.hpp on
  // tolerance vs strict weak ordering).
  std::stable_sort(pool.begin(), pool.end(), [&](const auto& a, const auto& b) {
    const double ua = req.set[a.first].utilization(Mode::HI);
    const double ub = req.set[b.first].utilization(Mode::HI);
    if (ua != ub) return ua > ub;  // rbs-lint: allow(float-eq)
    const TieKey ka = tie_key(req.set[a.first]);
    const TieKey kb = tie_key(req.set[b.first]);
    if (ka != kb) return ka < kb;
    return a.first < b.first;
  });

  std::vector<std::size_t> candidates;
  std::vector<std::size_t> tentative;
  std::vector<std::size_t> shed;
  for (const auto& [task, from] : pool) {
    // Receiver preference recomputed per task: lightest HI load first, core
    // index breaking ties -- the same order for every replay of this plan.
    candidates.clear();
    for (std::size_t c = 0; c < cores; ++c)
      if (!state[c].dead && !state[c].denied) candidates.push_back(c);
    std::stable_sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
      if (state[a].u_hi != state[b].u_hi) return state[a].u_hi < state[b].u_hi;  // rbs-lint: allow(float-eq)
      return a < b;
    });
    bool placed = false;
    for (std::size_t c : candidates) {
      tentative = state[c].tasks;
      tentative.push_back(task);
      if (!accept_on_core(ctx, tentative, req.budgets[c], shed)) continue;
      state[c].tasks = tentative;
      state[c].u_hi += req.set[task].utilization(Mode::HI);
      // The fallback tiers are prefixes of one sacrifice order, so the
      // latest acceptance's list supersedes earlier ones wholesale.
      state[c].shed.clear();
      for (std::size_t local : shed) state[c].shed.push_back(tentative[local]);
      sc.migrations.push_back({task, from, c});
      placed = true;
      break;
    }
    // Keep placing the rest best-effort: an infeasible scenario still wants
    // the most complete plan the online migrator can act on.
    if (!placed) feasible = false;
  }

  for (std::size_t c = 0; c < cores; ++c)
    for (std::size_t g : state[c].shed) sc.degraded_lo.push_back({g, c});

  sc.feasible = feasible;
  return sc;
}

}  // namespace

std::string to_string(CoreFaultClass fault_class) {
  switch (fault_class) {
    case CoreFaultClass::kFailStop: return "fail-stop";
    case CoreFaultClass::kBoostDenied: return "boost-denied";
  }
  return "?";
}

Status check_partition(const std::vector<std::vector<std::size_t>>& assignment, std::size_t n,
                       const std::string& prefix) {
  std::vector<char> seen(n, 0);
  for (const auto& core_tasks : assignment) {
    for (std::size_t g : core_tasks) {
      if (g >= n) return Status::error(prefix + ": assignment names a task index out of range");
      if (seen[g]) return Status::error(prefix + ": task assigned to more than one core");
      seen[g] = 1;
    }
  }
  for (std::size_t g = 0; g < n; ++g)
    if (!seen[g]) return Status::error(prefix + ": task assigned to no core");
  return Status::ok();
}

// RBS_DET_PATH: MulticoreSim replays the spare assignments this returns and
// the multicore_k1 digest hashes them, so every plan must be a pure function
// of the request.
RBS_DET_PATH Expected<MultiReport> analyze_resilience(const MultiRequest& request) {
  const std::size_t cores = request.assignment.size();
  if (cores == 0) return Status::error("multi: assignment must name at least one core");
  if (request.budgets.size() != cores)
    return Status::error("multi: budgets size must equal the core count");
  for (const CoreBudget& budget : request.budgets) {
    if (!(budget.hi_speedup > 0.0) || !std::isfinite(budget.hi_speedup))
      return Status::error("multi: every hi_speedup must be finite and > 0");
    if (std::isnan(budget.max_reset) || budget.max_reset <= 0.0)
      return Status::error("multi: every max_reset must be > 0 (or +inf)");
  }
  if (request.tolerance >= cores)
    return Status::error("multi: tolerance must leave at least one surviving core");

  if (Status partition = check_partition(request.assignment, request.set.size(), "multi");
      !partition.is_ok())
    return partition;

  constexpr std::array<CoreFaultClass, 2> kClasses = {CoreFaultClass::kFailStop,
                                                      CoreFaultClass::kBoostDenied};
  double scenario_count = 0.0;
  double choose = 1.0;
  double class_pow = 1.0;
  for (std::size_t j = 1; j <= request.tolerance; ++j) {
    choose = choose * static_cast<double>(cores - j + 1) / static_cast<double>(j);
    class_pow *= static_cast<double>(kClasses.size());
    scenario_count += choose * class_pow;
  }
  if (scenario_count > static_cast<double>(request.max_scenarios))
    return Status::error("multi: scenario space exceeds max_scenarios; raise the cap or lower the tolerance");

  MultiReport report;
  report.cores = cores;
  report.tolerance = request.tolerance;
  Ctx ctx{&request, &report.analyzer_calls, {}, {}};

  // Every core is asked, also after an infeasible one, so analyzer_calls
  // counts one check per core with tasks.
  bool nominal = true;
  for (std::size_t c = 0; c < cores; ++c)
    nominal = nominal_feasible(ctx, request.assignment[c], request.budgets[c]) && nominal;
  report.nominal_feasible = nominal;

  bool all_scenarios_ok = true;
  for (std::size_t j = 1; j <= request.tolerance; ++j) {
    std::vector<std::size_t> combo(j);
    std::iota(combo.begin(), combo.end(), 0);
    while (true) {
      std::size_t total = 1;
      for (std::size_t d = 0; d < j; ++d) total *= kClasses.size();
      for (std::size_t m = 0; m < total; ++m) {
        std::vector<CoreFaultClass> classes(j);
        std::size_t v = m;
        for (std::size_t d = 0; d < j; ++d) {
          classes[d] = kClasses[v % kClasses.size()];
          v /= kClasses.size();
        }
        FailureScenario sc = evaluate_scenario(ctx, combo, classes);
        ++report.scenarios_checked;
        if (!sc.feasible) {
          ++report.scenarios_infeasible;
          all_scenarios_ok = false;
        }
        report.scenarios.push_back(std::move(sc));
      }
      // Next lexicographic j-combination of [0, cores).
      std::size_t i = j;
      while (i > 0 && combo[i - 1] == cores - j + (i - 1)) --i;
      if (i == 0) break;
      ++combo[i - 1];
      for (std::size_t t = i; t < j; ++t) combo[t] = combo[t - 1] + 1;
    }
  }

  report.tolerant = report.nominal_feasible && all_scenarios_ok;
  return report;
}

const FailureScenario* find_scenario(const MultiReport& report,
                                     const std::vector<std::size_t>& faulted,
                                     const std::vector<CoreFaultClass>& classes) {
  for (const FailureScenario& sc : report.scenarios)
    if (sc.faulted == faulted && sc.classes == classes) return &sc;
  return nullptr;
}

}  // namespace rbs::multi
