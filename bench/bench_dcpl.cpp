// DCPL proof of concept (the paper's "other" architecture knob, Section I):
// reassigning cache ways from terminated LO tasks to HI tasks at the mode
// switch shrinks the HI WCETs and thereby the required processor speedup --
// cache reallocation can substitute for part (sometimes all) of the DVFS
// boost.
//
// Workload: FMS-like implicit-deadline sets whose WCETs follow synthetic
// exponential WCET-vs-ways curves (diminishing returns), swept over the
// cache sensitivity (the fraction of the WCET that way-locking can remove).
//
//   bench_dcpl [--ways 16] [--sets 30] [--seed 1]
#include "common.hpp"

#include <cmath>

#include "cache/waymodel.hpp"
#include "gen/rng.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"ways", "sets", "seed"});
  const int total_ways = static_cast<int>(args.get_int("ways", 16));
  const int n_sets = static_cast<int>(args.get_int("sets", 30));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  bench::banner("DCPL (cache reallocation at the mode switch)",
                "Required speedup with and without handing the LO tasks' cache ways\n"
                "to the HI tasks in HI mode (" +
                    std::to_string(total_ways) + "-way cache).");

  Rng rng(seed);

  TextTable t;
  t.set_header({"cache sensitivity", "med s_min static", "med s_min DCPL",
                "med speedup saved", "no-DVFS-needed [%]"});

  for (double sensitivity : {0.2, 0.5, 1.0, 1.5}) {
    std::vector<double> s_static, s_dcpl, saved;
    int no_dvfs = 0, total = 0;
    for (int trial = 0; trial < n_sets; ++trial) {
      // 3 HI + 3 LO tasks; LO-mode partition splits the cache evenly.
      std::vector<CacheTaskSpec> specs;
      const int share = total_ways / 6;
      WayAllocation a_lo;
      for (int i = 0; i < 6; ++i) {
        const bool hi = i < 3;
        const Ticks period = rng.uniform_int(50, 500);
        const double u_lo = rng.uniform(0.05, 0.15);
        const auto base_lo = std::max<Ticks>(
            1, static_cast<Ticks>(std::llround(u_lo * static_cast<double>(period))));
        const double gamma = rng.uniform(1.5, 2.5);
        const auto base_hi = std::min(
            period, static_cast<Ticks>(std::llround(gamma * static_cast<double>(base_lo))));
        CacheTaskSpec spec;
        spec.name = std::string(hi ? "h" : "l") + std::to_string(i);
        spec.criticality = hi ? Criticality::HI : Criticality::LO;
        spec.period = period;
        spec.lo_curve = WcetCurve::exponential(base_lo, sensitivity, 3.0, total_ways);
        if (hi) spec.hi_curve = WcetCurve::exponential(base_hi, sensitivity, 3.0, total_ways);
        specs.push_back(std::move(spec));
        a_lo.push_back(share);
      }

      const double x = 0.6;
      const TaskSet static_set = materialize_cache_set(
          specs, a_lo, WayAllocation{share, share, share, 0, 0, 0}, x);
      if (!lo_mode_schedulable(static_set)) continue;
      ++total;
      const double s0 = min_speedup_value(static_set);
      const CachePlanResult plan = greedy_hi_allocation(specs, a_lo, total_ways, x);
      s_static.push_back(s0);
      s_dcpl.push_back(plan.s_min);
      saved.push_back(s0 - plan.s_min);
      if (s0 > 1.0 && plan.s_min <= 1.0) ++no_dvfs;
    }
    t.add_row({TextTable::num(sensitivity, 1), TextTable::num(median(s_static), 3),
               TextTable::num(median(s_dcpl), 3), TextTable::num(median(saved), 3),
               TextTable::num(total ? 100.0 * no_dvfs / total : 0.0, 0)});
  }
  t.print(std::cout);
  std::cout << "\nThe more cache-sensitive the WCETs, the more of the required DVFS\n"
               "boost the cache reallocation replaces ('no-DVFS-needed' counts sets\n"
               "whose s_min drops from > 1 to <= 1 through DCPL alone).\n";
  return 0;
}
