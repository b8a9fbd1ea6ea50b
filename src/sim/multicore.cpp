#include "sim/multicore.hpp"

#include <algorithm>
#include <utility>

#include "core/resilience.hpp"

namespace rbs::sim {

namespace {

/// One entry of a core's final task list: the global index and the earliest
/// first-release instant on this core (0 for nominal residents, the source's
/// failure instant for fail-stop migrants).
struct LocalTask {
  std::size_t global = 0;
  double start = 0.0;
};

}  // namespace

Expected<MulticoreReport> MulticoreSim::run(const MulticoreRequest& request) {
  const std::size_t cores = request.assignment.size();
  const std::size_t n = request.set.size();
  if (cores == 0) return Status::error("multicore: assignment must name at least one core");
  if (!request.core_faults.empty() && request.core_faults.size() != cores)
    return Status::error("multicore: core_faults size must equal the core count");
  if (Status partition = multi::check_partition(request.assignment, n, "multicore");
      !partition.is_ok())
    return partition;
  std::vector<std::size_t> home(n, 0);
  for (std::size_t c = 0; c < cores; ++c)
    for (std::size_t g : request.assignment[c]) home[g] = c;
  if (!request.config.start_times.empty() && request.config.start_times.size() != n)
    return Status::error("multicore: start_times size must match the task set");
  if (!request.config.scripted_arrivals.empty() &&
      request.config.scripted_arrivals.size() != n)
    return Status::error("multicore: scripted_arrivals size must match the task set");

  const double horizon = request.config.horizon;

  // Per-core fault plans and the resulting faulted-core signature. A core
  // with both a fail-stop instant and a boost denial classifies as
  // fail-stop: the denial only matters while the core is alive, and the
  // resilience analysis treats death as the stronger fault.
  std::vector<FaultPlan> plans(cores);
  std::vector<char> dies(cores, 0);
  std::vector<char> denied(cores, 0);
  std::vector<std::size_t> faulted;
  std::vector<multi::CoreFaultClass> classes;
  for (std::size_t c = 0; c < cores; ++c) {
    plans[c] = request.core_faults.empty() ? request.config.faults : request.core_faults[c];
    dies[c] = plans[c].core_fail_at > 0.0 && plans[c].core_fail_at < horizon ? 1 : 0;
    denied[c] = plans[c].boost_denied_on_core ? 1 : 0;
    if (dies[c]) {
      faulted.push_back(c);
      classes.push_back(multi::CoreFaultClass::kFailStop);
    } else if (denied[c]) {
      faulted.push_back(c);
      classes.push_back(multi::CoreFaultClass::kBoostDenied);
    }
  }

  std::vector<std::vector<LocalTask>> locals(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    locals[c].reserve(request.assignment[c].size());
    for (std::size_t g : request.assignment[c]) {
      const double start =
          request.config.start_times.empty() ? 0.0 : request.config.start_times[g];
      locals[c].push_back({g, start});
    }
  }

  MulticoreReport out;

  // ---- migrator: apply the precomputed spare assignment -------------------
  std::vector<std::vector<std::size_t>> shed(cores);  // global indices / receiver
  std::vector<char> covered(n, 0);                    // task has a plan step
  std::vector<std::size_t> migrated_in(cores, 0);
  const multi::FailureScenario* scenario =
      request.plan != nullptr && !faulted.empty()
          ? multi::find_scenario(*request.plan, faulted, classes)
          : nullptr;
  if (scenario != nullptr) {
    out.used_plan = true;
    for (const multi::MigrationStep& step : scenario->migrations) {
      if (step.task >= n || step.from_core >= cores || step.to_core >= cores)
        return Status::error("multicore: plan migration step out of range");
      const bool from_dead = dies[step.from_core] != 0;
      if (!from_dead) {
        // Boost-denial re-partition: known at boot, so the source drops the
        // task and the receiver runs it from t = 0.
        auto& src = locals[step.from_core];
        src.erase(std::remove_if(src.begin(), src.end(),
                                 [&](const LocalTask& t) { return t.global == step.task; }),
                  src.end());
      }
      // A fail-stop migrant keeps running on the source until the failure
      // instant; the spare releases it from that moment on.
      locals[step.to_core].push_back(
          {step.task, from_dead ? plans[step.from_core].core_fail_at : 0.0});
      covered[step.task] = 1;
      ++migrated_in[step.to_core];
      ++out.migrations_applied;
    }
    for (const multi::ShedStep& step : scenario->degraded_lo) {
      if (step.task >= n || step.core >= cores)
        return Status::error("multicore: plan shed step out of range");
      shed[step.core].push_back(step.task);
      ++out.lo_shed;
    }
  }

  // Forced best-effort placement of displaced HI work no plan step covered:
  // tasks on dying cores only (a denied core keeps its residents and simply
  // runs its episodes unboosted). Deterministic -- pool ordered by
  // decreasing U(HI) then global index, receiver = surviving non-denied
  // core with the fewest migrated-in tasks, then lowest index -- so a
  // non-tolerant partition misses reproducibly instead of dropping work.
  std::vector<std::size_t> pool;
  for (std::size_t c = 0; c < cores; ++c) {
    if (!dies[c]) continue;
    for (std::size_t g : request.assignment[c])
      if (request.set[g].is_hi() && !covered[g]) pool.push_back(g);
  }
  if (!pool.empty()) {
    std::stable_sort(pool.begin(), pool.end(), [&](std::size_t a, std::size_t b) {
      const double ua = request.set[a].utilization(Mode::HI);
      const double ub = request.set[b].utilization(Mode::HI);
      if (ua != ub) return ua > ub;  // rbs-lint: allow(float-eq)
      return a < b;
    });
    for (std::size_t g : pool) {
      std::size_t best = cores;
      for (std::size_t c = 0; c < cores; ++c) {
        if (dies[c] || denied[c]) continue;
        if (best == cores || migrated_in[c] < migrated_in[best]) best = c;
      }
      if (best == cores) continue;  // every core is faulted: the work is lost
      locals[best].push_back({g, plans[home[g]].core_fail_at});
      ++migrated_in[best];
      ++out.forced_migrations;
    }
  }

  if (!request.config.scripted_arrivals.empty() &&
      out.migrations_applied + out.forced_migrations > 0)
    return Status::error("multicore: scripted arrivals cannot be combined with migrations");

  // ---- per-core runs ------------------------------------------------------
  sims_.resize(cores);
  out.cores.reserve(cores);
  out.combined = SimMetrics{};
  out.combined.horizon = horizon;
  out.combined.task_stats.assign(n, TaskStats{});

  std::vector<McTask> tasks;
  std::vector<std::size_t> global_of_local;
  std::vector<std::size_t> shed_local;
  for (std::size_t c = 0; c < cores; ++c) {
    tasks.clear();
    global_of_local.clear();
    SimConfig cfg = request.config;
    cfg.seed = request.config.seed + c;  // core 0 keeps the seed unchanged
    cfg.faults = plans[c];
    cfg.start_times.clear();
    cfg.scripted_arrivals.clear();
    bool any_start = false;
    for (const LocalTask& t : locals[c]) {
      tasks.push_back(request.set[t.global]);
      global_of_local.push_back(t.global);
      cfg.start_times.push_back(t.start);
      any_start = any_start || t.start > 0.0;
    }
    // All-zero start times are semantically the empty vector; pass the
    // empty form so a migration-free run is bit-identical to the
    // uniprocessor kernel's historical configuration.
    if (!any_start) cfg.start_times.clear();
    if (!request.config.scripted_arrivals.empty())
      for (const LocalTask& t : locals[c])
        cfg.scripted_arrivals.push_back(request.config.scripted_arrivals[t.global]);

    Expected<TaskSet> local = TaskSet::create(std::move(tasks));
    if (!local) return local.status();
    if (!shed[c].empty()) {
      shed_local.clear();
      for (std::size_t g : shed[c])
        for (std::size_t k = 0; k < global_of_local.size(); ++k)
          if (global_of_local[k] == g) {
            shed_local.push_back(k);
            break;
          }
      Expected<TaskSet> degraded = apply_termination(*local, shed_local);
      if (!degraded) return degraded.status();
      *local = std::move(*degraded);
    }

    Expected<SimReport> report = sims_[c].run(*local, cfg, request.limits);
    if (!report) return report.status();
    out.completed = out.completed && (report->termination == SimTermination::kHorizon ||
                                      report->termination == SimTermination::kCoreFault);
    const SimMetrics& metrics = report->metrics;
    out.combined.misses.reserve(out.combined.misses.size() + metrics.misses.size());
    out.combined.hi_dwell_times.reserve(out.combined.hi_dwell_times.size() +
                                        metrics.hi_dwell_times.size());
    merge_metrics(out.combined, metrics, global_of_local);
    out.cores.push_back(std::move(*report));
  }

  return out;
}

void MulticoreSim::merge_metrics(SimMetrics& combined, const SimMetrics& metrics,
                                 const std::vector<std::size_t>& global_of_local) {
  combined.jobs_released += metrics.jobs_released;
  combined.jobs_completed += metrics.jobs_completed;
  combined.jobs_abandoned += metrics.jobs_abandoned;
  combined.preemptions += metrics.preemptions;
  combined.mode_switches += metrics.mode_switches;
  combined.budget_fallbacks += metrics.budget_fallbacks;
  combined.faults_injected += metrics.faults_injected;
  combined.throttle_downs += metrics.throttle_downs;
  combined.undetected_overruns += metrics.undetected_overruns;
  combined.jobs_lost_to_fault += metrics.jobs_lost_to_fault;
  combined.busy_time += metrics.busy_time;
  combined.ended_in_hi_mode = combined.ended_in_hi_mode || metrics.ended_in_hi_mode;
  for (const DeadlineMiss& miss : metrics.misses)
    combined.misses.push_back(
        {global_of_local[miss.task_index], miss.job_id, miss.deadline, miss.mode});
  for (double dwell : metrics.hi_dwell_times) combined.hi_dwell_times.push_back(dwell);
  for (std::size_t i = 0; i < metrics.task_stats.size(); ++i) {
    TaskStats& into = combined.task_stats[global_of_local[i]];
    const TaskStats& from = metrics.task_stats[i];
    into.released += from.released;
    into.completed += from.completed;
    into.misses += from.misses;
    into.max_response = std::max(into.max_response, from.max_response);
    into.total_response += from.total_response;
  }
}

}  // namespace rbs::sim
