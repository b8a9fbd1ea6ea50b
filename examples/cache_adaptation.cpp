// Cache adaptation walkthrough: using DCPL instead of (or alongside) DVFS.
//
// An avionics-flavoured workload with cache-sensitive WCETs: in normal
// operation the 16-way cache is shared fairly; when a critical task
// overruns, the ways of the terminated low-criticality tasks are handed to
// the critical tasks, shrinking their certified WCETs. The example compares
// the processor speedup required with a static cache partition against the
// greedy DCPL reallocation, then prices the residual speedup (if any) on a
// DVFS menu.
//
// Usage: cache_adaptation [--ways 16] [--sensitivity 0.8]
#include <cmath>
#include <iostream>

#include "cache/waymodel.hpp"
#include "rbs.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  if (const Status flags = args.check_flags({"ways", "sensitivity"}); !flags) {
    std::cerr << "error: " << flags.message() << "\n";
    return 2;
  }
  const int ways = static_cast<int>(args.get_int("ways", 16));
  const double sensitivity = args.get_double("sensitivity", 0.8);

  // WCET-vs-ways curves: C(w) = base * (1 + sensitivity * 2^(-w/3)).
  auto curve = [&](Ticks base) {
    return WcetCurve::exponential(base, sensitivity, 3.0, ways);
  };
  std::vector<CacheTaskSpec> specs = {
      {"attitude", Criticality::HI, 100, curve(6), curve(14)},
      {"guidance", Criticality::HI, 250, curve(20), curve(45)},
      {"airdata", Criticality::HI, 500, curve(35), curve(80)},
      {"display", Criticality::LO, 120, curve(18), {}},
      {"datalink", Criticality::LO, 400, curve(50), {}},
      {"logging", Criticality::LO, 1000, curve(90), {}},
  };
  std::cout << "6-task avionics workload on a " << ways
            << "-way cache (sensitivity " << sensitivity << ")\n\n";

  // Fair LO-mode partition.
  WayAllocation a_lo(specs.size(), ways / static_cast<int>(specs.size()));
  const double x = 0.6;

  // Static: HI tasks keep their LO-mode ways in HI mode.
  WayAllocation a_static(specs.size(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (specs[i].criticality == Criticality::HI) a_static[i] = a_lo[i];
  const TaskSet static_set = materialize_cache_set(specs, a_lo, a_static, x);
  if (!lo_mode_schedulable(static_set)) {
    std::cout << "LO mode infeasible -- widen the cache or lower utilization\n";
    return 1;
  }
  const double s_static = min_speedup_value(static_set);

  // DCPL: greedy reallocation of the freed ways.
  const CachePlanResult plan = greedy_hi_allocation(specs, a_lo, ways, x);

  TextTable t;
  t.set_header({"task", "crit", "LO ways", "HI ways (DCPL)", "C(HI) static", "C(HI) DCPL"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    t.add_row({specs[i].name, std::string(to_string(specs[i].criticality)),
               TextTable::num(static_cast<long long>(a_lo[i])),
               TextTable::num(static_cast<long long>(plan.hi_allocation[i])),
               TextTable::num(static_cast<long long>(static_set[i].wcet(Mode::HI))),
               TextTable::num(static_cast<long long>(plan.set[i].wcet(Mode::HI)))});
  }
  t.print(std::cout);

  std::cout << "\nrequired HI-mode speedup: static partition " << TextTable::num(s_static, 3)
            << "  ->  DCPL " << TextTable::num(plan.s_min, 3) << "\n";

  if (plan.s_min <= 1.0) {
    std::cout << "cache reallocation alone absorbs the overrun: no overclocking\n"
                 "needed, the processor can stay at nominal speed in HI mode.\n";
    return 0;
  }

  // Price the residual boost on a DVFS menu.
  const FrequencyMenu menu = FrequencyMenu::cubic({1.0, 1.2, 1.5, 2.0});
  const LevelChoice with_dcpl = min_feasible_level(plan.set, menu);
  const LevelChoice without = min_feasible_level(static_set, menu);
  std::cout << "residual DVFS level: " << (with_dcpl.feasible
                                               ? TextTable::num(with_dcpl.level.speed, 1)
                                               : "none")
            << "x with DCPL vs "
            << (without.feasible ? TextTable::num(without.level.speed, 1) : "none")
            << "x without\n";
  return 0;
}
