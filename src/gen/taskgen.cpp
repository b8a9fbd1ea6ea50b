#include "gen/taskgen.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "support/det_annotations.hpp"

namespace rbs {

namespace {

constexpr double kULoMin = 0.01;  ///< per-task C(LO)/T range
constexpr double kULoMax = 0.2;
constexpr double kGammaMin = 1.0;  ///< C(HI)/C(LO) range of a HI task
constexpr double kGammaMax = 3.0;
constexpr double kPHi = 0.5;  ///< probability a task is HI-criticality
constexpr double kRegionGamma = 10.0;  ///< Fig. 7's C(HI)/C(LO) of every HI task
constexpr int kMaxRedraws = 1000;  ///< overshoot re-draws before giving up

/// One random task, unnamed: an overshooting draw is thrown away, so the
/// generators name a task (name_task) only once they accept it.
ImplicitTask draw_task(Rng& rng, Ticks period_min, Ticks period_max, double gamma_lo,
                       double gamma_hi, double hi_probability) {
  ImplicitTask t;
  t.period = rng.uniform_int(period_min, period_max);
  const double u_lo = rng.uniform(kULoMin, kULoMax);
  t.c_lo = std::max<Ticks>(
      1, static_cast<Ticks>(std::llround(u_lo * static_cast<double>(t.period))));
  t.c_lo = std::min(t.c_lo, t.period);
  t.criticality = rng.bernoulli(hi_probability) ? Criticality::HI : Criticality::LO;
  if (t.criticality == Criticality::HI) {
    const double gamma = rng.uniform(gamma_lo, gamma_hi);
    t.c_hi = std::clamp(
        static_cast<Ticks>(std::llround(gamma * static_cast<double>(t.c_lo))), t.c_lo,
        t.period);
  } else {
    t.c_hi = t.c_lo;
  }
  return t;
}

/// Names the `index`-th task of a set "hi<index>" or "lo<index>".
void name_task(ImplicitTask& t, int index) {
  t.name = (t.criticality == Criticality::HI ? "hi" : "lo") + std::to_string(index);
}

}  // namespace

double system_utilization(const ImplicitSet& set) {
  return std::max(set.u_total_lo(), set.u_hi_hi());
}

// RBS_DET_PATH (here and on generate_uunifast_set): every campaign and
// benchmark digest starts from the sets the generators draw, so a set must be
// a pure function of the parameters and the seeded Rng's state.
RBS_DET_PATH std::optional<ImplicitSet> generate_task_set(const GenParams& params, Rng& rng) {
  std::vector<ImplicitTask> tasks;
  double u_total_lo = 0.0;
  double u_hi_hi = 0.0;
  int redraws = 0;
  int index = 0;

  while (true) {
    ImplicitTask t =
        draw_task(rng, params.period_min, params.period_max, kGammaMin, kGammaMax, kPHi);
    const double new_lo = u_total_lo + t.u_lo();
    const double new_hi = u_hi_hi + (t.criticality == Criticality::HI ? t.u_hi() : 0.0);
    const double metric = std::max(new_lo, new_hi);

    if (metric > params.u_bound + kUBoundTolerance) {
      if (++redraws > kMaxRedraws) return std::nullopt;
      continue;  // overshoot: re-draw this task
    }
    name_task(t, index);
    tasks.push_back(std::move(t));
    u_total_lo = new_lo;
    u_hi_hi = new_hi;
    ++index;
    if (metric >= params.u_bound - kUBoundTolerance) return ImplicitSet(std::move(tasks));
  }
}

std::vector<double> uunifast(int n, double u_total, Rng& rng) {
  std::vector<double> utilizations;
  if (n <= 0) return utilizations;
  utilizations.reserve(static_cast<std::size_t>(n));
  double remaining = u_total;
  for (int i = 1; i < n; ++i) {
    const double next =
        remaining * std::pow(rng.uniform(0.0, 1.0), 1.0 / static_cast<double>(n - i));
    utilizations.push_back(remaining - next);
    remaining = next;
  }
  utilizations.push_back(remaining);
  return utilizations;
}

RBS_DET_PATH ImplicitSet generate_uunifast_set(const UUniFastParams& params, Rng& rng) {
  const std::vector<double> utils = uunifast(params.n_tasks, params.u_total_lo, rng);
  std::vector<ImplicitTask> tasks;
  tasks.reserve(utils.size());
  int index = 0;
  for (double u : utils) {
    ImplicitTask t;
    t.period = rng.uniform_int(kPeriodMin, kPeriodMax);
    t.c_lo = std::clamp(
        static_cast<Ticks>(std::llround(std::min(u, 1.0) * static_cast<double>(t.period))),
        Ticks{1}, t.period);
    t.criticality = rng.bernoulli(kPHi) ? Criticality::HI : Criticality::LO;
    if (t.criticality == Criticality::HI) {
      const double gamma = rng.uniform(kGammaMin, kGammaMax);
      t.c_hi = std::clamp(
          static_cast<Ticks>(std::llround(gamma * static_cast<double>(t.c_lo))), t.c_lo,
          t.period);
    } else {
      t.c_hi = t.c_lo;
    }
    name_task(t, index);
    tasks.push_back(std::move(t));
    ++index;
  }
  return ImplicitSet(std::move(tasks));
}

std::optional<ImplicitSet> generate_region_set(const RegionParams& params, Rng& rng) {
  std::vector<ImplicitTask> tasks;
  int index = 0;

  // Fill one criticality level up to its target, re-drawing overshoots.
  auto fill = [&](Criticality chi, double target) -> bool {
    double filled = 0.0;
    int redraws = 0;
    while (filled < target - kRegionTolerance) {
      ImplicitTask t = draw_task(rng, kPeriodMin, kPeriodMax, kRegionGamma, kRegionGamma,
                                 /*hi_probability=*/chi == Criticality::HI ? 1.0 : 0.0);
      const double u = chi == Criticality::HI ? t.u_hi() : t.u_lo();
      if (filled + u > target + kRegionTolerance) {
        if (++redraws > kMaxRedraws) return false;
        continue;
      }
      name_task(t, index);
      tasks.push_back(std::move(t));
      filled += u;
      ++index;
    }
    return true;
  };

  if (!fill(Criticality::HI, params.u_hi)) return std::nullopt;
  if (!fill(Criticality::LO, params.u_lo)) return std::nullopt;
  return ImplicitSet(std::move(tasks));
}

}  // namespace rbs
