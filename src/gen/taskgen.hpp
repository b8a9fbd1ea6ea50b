// Random task-set generator (Section VI-B of the paper; proposed in [4]).
//
// "The task generator starts with an empty task set and continuously adds new
// random tasks to this set until certain system utilization U_bound is met."
// Parameter ranges follow the Fig. 6 caption exactly:
//   * minimum inter-arrival times T drawn uniformly from [2 ms, 2 s]
//     (1 tick = 0.1 ms) as in ref. [4];
//   * task LO-criticality utilization C(LO)/T(LO) uniform in [0.01, 0.2];
//   * gamma = C(HI)/C(LO) uniform in [1, 3] for HI tasks (10 in Fig. 7);
//   * each task is HI-criticality with probability 1/2.
//
// "System utilization" is the classic dual-criticality load metric
//   U_bound = max( sum_all C(LO)/T ,  sum_HI C(HI)/T ),
// i.e. the larger of the LO-mode and HI-mode utilizations; a draw
// overshooting the target is re-drawn so the final value lands within
// kUBoundTolerance of the target.
//
// Fig. 7 instead targets a *pair* (U_HI, U_LO) = (sum_HI C(HI)/T,
// sum_LO C(LO)/T) within +-kRegionTolerance each, at gamma = 10 "to cover
// more search spaces"; generate_region_set does that.
//
// The ranges above are fixed: only the targets and, for generate_task_set,
// the period range are parameters.
#pragma once

#include <optional>

#include "core/closed_form.hpp"
#include "gen/rng.hpp"

namespace rbs {

inline constexpr Ticks kPeriodMin = 20;     ///< 2 ms at 0.1 ms ticks
inline constexpr Ticks kPeriodMax = 20000;  ///< 2 s
/// Acceptance window of generate_task_set around u_bound.
inline constexpr double kUBoundTolerance = 0.005;
/// The paper's Fig. 7 neighbourhood U +- 0.025 of generate_region_set.
inline constexpr double kRegionTolerance = 0.025;

struct GenParams {
  double u_bound = 0.5;          ///< target system utilization (see above)
  Ticks period_min = kPeriodMin;
  Ticks period_max = kPeriodMax;
};

/// The generator's load metric: max(LO-mode total, HI-mode HI-task total).
double system_utilization(const ImplicitSet& set);

/// One random implicit-deadline skeleton set hitting `params.u_bound`.
/// Returns nullopt if the acceptance window could not be hit (rare; callers
/// simply retry with the next seed).
std::optional<ImplicitSet> generate_task_set(const GenParams& params, Rng& rng);

struct RegionParams {
  double u_hi = 0.5;  ///< target sum_HI C(HI)/T
  double u_lo = 0.5;  ///< target sum_LO C(LO)/T
};

/// One random skeleton set whose (U_HI, U_LO) lands in the target
/// neighbourhood (Fig. 7).
std::optional<ImplicitSet> generate_region_set(const RegionParams& params, Rng& rng);

/// UUniFast (Bini & Buttazzo, 2005): n utilizations summing to u_total,
/// uniformly distributed over the standard simplex. The usual alternative to
/// the add-until-bound generator of [4] when the task count must be fixed.
std::vector<double> uunifast(int n, double u_total, Rng& rng);

struct UUniFastParams {
  int n_tasks = 10;
  double u_total_lo = 0.5;  ///< sum of C(LO)/T over all tasks
};

/// Fixed-size skeleton set with UUniFast LO-mode utilizations. Per-task
/// utilizations are capped at 1 by construction; C values are rounded to
/// ticks (>= 1), so the realised total can drift slightly from u_total_lo.
ImplicitSet generate_uunifast_set(const UUniFastParams& params, Rng& rng);

}  // namespace rbs
