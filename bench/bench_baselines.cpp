// Baseline and deployment ablations beyond the paper's own comparisons:
//
//  (1) acceptance ratios of {EDF demand-bound analysis with speedup s_min<=s,
//      plain EDF demand-bound (s=1), EDF-VD [4], AMC-rtb (fixed priority)}
//      on identical workloads (termination model, utilization x rule);
//  (2) partitioned multicore: cores needed with and without a per-core
//      speedup budget (first-fit decreasing over the per-core analysis);
//  (3) overhead sensitivity: how much context-switch cost random sets
//      tolerate before the 2x certificate breaks.
//
//   bench_baselines [--sets 100] [--seed 1]
#include "common.hpp"

#include <cmath>

#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"sets", "seed"});
  const int n_sets = static_cast<int>(args.get_int("sets", 100));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  bench::banner("Baselines & deployment",
                "Scheduler-test acceptance ratios, multicore partitioning and\n"
                "overhead tolerance on random workloads.");

  Rng rng(seed);

  // ---- (1) acceptance ratios ----
  std::cout << "(1) acceptance ratio [%] (LO termination in HI mode)\n";
  TextTable t1;
  t1.set_header({"U_bound", "EDF-dbf s<=2", "EDF-dbf s<=1.5", "EDF-dbf s<=1", "EDF-VD",
                 "AMC-rtb"});
  for (double u : {0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    GenParams params;
    params.u_bound = u;
    int total = 0, edf2 = 0, edf15 = 0, edf1 = 0, vd = 0, amc = 0;
    for (int i = 0; i < n_sets; ++i) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      ++total;
      vd += edf_vd_schedulable(*skeleton).schedulable;
      amc += amc_rtb_schedulable(*skeleton).schedulable;
      // Each method with its own best tuning: the demand-bound test may pick
      // x by exact bisection (EDF-VD's x is fixed by its utilization rule).
      const auto set =
          bench::materialize_min_x_terminating(*skeleton, bench::XPolicy::kExact);
      if (!set) continue;
      const double s_min = min_speedup_value(*set);
      edf2 += s_min <= 2.0;
      edf15 += s_min <= 1.5;
      edf1 += s_min <= 1.0;
    }
    auto pct = [&](int k) { return TextTable::num(total ? 100.0 * k / total : 0.0, 0); };
    t1.add_row({TextTable::num(u, 1), pct(edf2), pct(edf15), pct(edf1), pct(vd), pct(amc)});
  }
  t1.print(std::cout);
  std::cout << "\nThe demand-bound test dominates both utilization-style baselines;\n"
               "temporary speedup pushes acceptance close to the LO-mode limit.\n\n";

  // ---- (2) partitioned multicore ----
  std::cout << "(2) cores needed (first-fit decreasing, per-core budgets)\n";
  TextTable t2;
  t2.set_header({"U_bound", "med cores s=1", "med cores s=2", "med cores s=2, dR<=2s"});
  for (double u : {0.8, 0.9}) {
    GenParams params;
    params.u_bound = u;
    std::vector<double> plain, boosted, bounded;
    for (int i = 0; i < n_sets / 2; ++i) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      const auto set = bench::materialize_min_x(*skeleton, 2.0,
                                                bench::XPolicy::kUtilization);
      if (!set) continue;
      PartitionOptions p1;
      p1.hi_speedup = 1.0;
      PartitionOptions p2;
      p2.hi_speedup = 2.0;
      PartitionOptions p3;
      p3.hi_speedup = 2.0;
      p3.max_reset = 20000.0;  // 2 s
      const auto c1 = cores_needed(*set, 8, p1);
      const auto c2 = cores_needed(*set, 8, p2);
      const auto c3 = cores_needed(*set, 8, p3);
      if (c1) plain.push_back(static_cast<double>(*c1));
      if (c2) boosted.push_back(static_cast<double>(*c2));
      if (c3) bounded.push_back(static_cast<double>(*c3));
    }
    t2.add_row({TextTable::num(u, 1), TextTable::num(median(plain), 1),
                TextTable::num(median(boosted), 1), TextTable::num(median(bounded), 1)});
  }
  t2.print(std::cout);
  std::cout << "\nPer-core temporary speedup absorbs HI-mode overload that would\n"
               "otherwise force an extra core.\n\n";

  // ---- (3) overhead tolerance ----
  std::cout << "(3) tolerable context-switch cost at s = 2 (ticks of 0.1 ms)\n";
  TextTable t3;
  t3.set_header({"U_bound", "min", "median", "max"});
  for (double u : {0.5, 0.7, 0.9}) {
    GenParams params;
    params.u_bound = u;
    std::vector<double> tolerances;
    for (int i = 0; i < n_sets / 2; ++i) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      const auto set = bench::materialize_min_x(*skeleton, 2.0,
                                                bench::XPolicy::kUtilization);
      if (!set) continue;
      const Ticks tol = max_tolerable_context_switch(*set, 2.0);
      if (tol >= 0) tolerances.push_back(static_cast<double>(tol));
    }
    const BoxWhisker b = box_whisker(tolerances);
    t3.add_row({TextTable::num(u, 1), TextTable::num(b.min, 0), TextTable::num(b.median, 0),
                TextTable::num(b.max, 0)});
  }
  t3.print(std::cout);
  std::cout << "\nCertificates survive realistic dispatch overheads with margin that\n"
               "shrinks as utilization grows.\n";
  return 0;
}
