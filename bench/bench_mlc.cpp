// Multi-level extension experiment: per-transition speed requirements of
// random 3-level systems.
//
// Random dual-criticality skeletons are lifted to K = 3: HI tasks become
// level 1 or 2 (level-2 tasks get a second WCET step gamma2 and a second
// virtual-deadline step), LO tasks degrade at the first switch and are
// terminated at the second. Reported per utilization: the two transitions'
// s_min distributions and resetting times at a 2x budget -- escalation
// usually *relaxes* the speed requirement because each switch sheds more
// service.
//
//   bench_mlc [--sets 100] [--seed 1]
#include "common.hpp"

#include <cmath>

#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "multi/mlc.hpp"

namespace {

using namespace rbs;

// Lifts an implicit-deadline dual-criticality skeleton to three levels.
std::optional<MlcSystem> lift_to_three_levels(const ImplicitSet& skeleton, double x,
                                              double gamma2, Rng& rng) {
  std::vector<MlcTask> tasks;
  for (const ImplicitTask& t : skeleton.tasks()) {
    MlcTask task;
    task.name = t.name;
    const auto d0 = std::clamp(
        static_cast<Ticks>(std::floor(x * static_cast<double>(t.period))), t.c_lo, t.period);
    if (t.criticality == Criticality::HI) {
      const bool top = rng.bernoulli(0.5);
      task.criticality = top ? 2 : 1;
      const Ticks c2 = std::clamp(
          static_cast<Ticks>(std::llround(gamma2 * static_cast<double>(t.c_hi))), t.c_hi,
          t.period);
      const Ticks d1 = std::clamp((d0 + t.period) / 2, std::max(d0, t.c_hi), t.period);
      if (top) {
        task.levels = {{t.period, d0, t.c_lo}, {t.period, d1, t.c_hi}, {t.period, t.period, c2}};
      } else {
        // Level-1 task: full certified service at level 1, degraded at 2.
        task.levels = {{t.period, d0, t.c_lo},
                       {t.period, t.period, t.c_hi},
                       {2 * t.period, 2 * t.period, t.c_hi}};
      }
    } else {
      task.criticality = 0;
      task.levels = {{t.period, t.period, t.c_lo},
                     {2 * t.period, 2 * t.period, t.c_lo},
                     {kInfTicks, kInfTicks, t.c_lo}};
    }
    tasks.push_back(std::move(task));
  }
  try {
    return MlcSystem(3, std::move(tasks));
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // a clamp collision made some level ill-formed
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"sets", "seed"});
  const int n_sets = static_cast<int>(args.get_int("sets", 100));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  bench::banner("Multi-level criticality (3 levels)",
                "Per-transition minimum speedups and resetting times of random\n"
                "3-level systems (gamma2 = 1.5 on top of the level-1 WCETs).");

  Rng rng(seed);
  TextTable t;
  t.set_header({"U_bound", "med s_min 0->1", "med s_min 1->2", "med dR(2) 0->1 [ms]",
                "med dR(2) 1->2 [ms]", "feasible@2x [%]"});
  for (double u : {0.4, 0.6, 0.8}) {
    GenParams params;
    params.u_bound = u;
    std::vector<double> s1, s2, dr1, dr2;
    int total = 0, feasible = 0;
    for (int i = 0; i < n_sets; ++i) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      const auto x = bench::min_x_under_policy(*skeleton, bench::XPolicy::kUtilization);
      if (!x) continue;
      const auto system = lift_to_three_levels(*skeleton, *x, 1.5, rng);
      if (!system) continue;
      ++total;
      const MlcAnalysis a = analyze_mlc(*system, {2.0, 2.0});
      s1.push_back(a.level_speedups[0]);
      s2.push_back(a.level_speedups[1]);
      if (std::isfinite(a.reset_times[0])) dr1.push_back(a.reset_times[0] / 10.0);
      if (std::isfinite(a.reset_times[1])) dr2.push_back(a.reset_times[1] / 10.0);
      feasible += a.schedulable;
    }
    t.add_row({TextTable::num(u, 1), TextTable::num(median(s1), 3),
               TextTable::num(median(s2), 3), TextTable::num(median(dr1), 1),
               TextTable::num(median(dr2), 1),
               TextTable::num(total ? 100.0 * feasible / total : 0.0, 0)});
  }
  t.print(std::cout);
  std::cout << "\nEach escalation sheds more service, so the second transition often\n"
               "needs *less* speedup than the first; both stay within a 2x budget\n"
               "for almost every set.\n";
  return 0;
}
