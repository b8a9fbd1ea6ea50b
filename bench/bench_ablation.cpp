// Ablations of the design choices called out in DESIGN.md section 6:
//
//  1. degradation vs termination of LO tasks (effect on s_min and Delta_R);
//  2. closed-form Lemmas 6/7 vs the exact pseudo-polynomial analysis
//     (bound tightness);
//  3. min-x tuning vs no deadline shortening (x = 1 makes s_min infinite
//     whenever C(HI) > C(LO); we quantify how often) and vs per-task greedy
//     tightening;
//  4. EDF-VD utilization test vs the demand-bound test (acceptance ratio,
//     termination model, no speedup).
//
//   bench_ablation [--sets 100] [--seed 1]
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
  bench::banner("Ablations", "Design-choice comparisons on random workloads (" +
                                 std::to_string(n_sets) + " sets per point).");

  const double u_bounds[] = {0.4, 0.6, 0.8};
  Rng rng(seed);

  // ---- 1 + 2: degradation vs termination, closed form vs exact ----
  std::cout << "(1) degradation vs termination  /  (2) closed form vs exact\n";
  TextTable t1;
  t1.set_header({"U_bound", "med s_min y=2", "med s_min term", "med dR(2) y=2 [ms]",
                 "med dR(2) term [ms]", "med Lemma6/exact", "med Lemma7/exact"});
  for (double u : u_bounds) {
    GenParams params;
    params.u_bound = u;
    std::vector<double> s_degr, s_term, dr_degr, dr_term, l6_ratio, l7_ratio;
    for (int i = 0; i < n_sets; ++i) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      const MinXResult mx = min_x_for_lo(*skeleton);
      if (!mx.feasible) continue;
      const TaskSet degr = skeleton->materialize(mx.x, 2.0);
      const TaskSet term = skeleton->materialize_terminating(mx.x);
      const double sd = min_speedup_value(degr);
      const double st = min_speedup_value(term);
      s_degr.push_back(sd);
      s_term.push_back(st);
      const double dd = resetting_time_value(degr, 2.0);
      const double dt = resetting_time_value(term, 2.0);
      if (std::isfinite(dd)) dr_degr.push_back(dd / 10.0);
      if (std::isfinite(dt)) dr_term.push_back(dt / 10.0);
      const double l6 = lemma6_speedup_bound(degr);
      if (sd > 0) l6_ratio.push_back(l6 / sd);
      const double exact7 = resetting_time_value(degr, l6 + 1.0);
      const double bound7 = lemma7_reset_bound(degr, l6 + 1.0);
      if (std::isfinite(exact7) && exact7 > 0) l7_ratio.push_back(bound7 / exact7);
    }
    t1.add_row({TextTable::num(u, 1), TextTable::num(median(s_degr), 3),
                TextTable::num(median(s_term), 3), TextTable::num(median(dr_degr), 1),
                TextTable::num(median(dr_term), 1), TextTable::num(median(l6_ratio), 3),
                TextTable::num(median(l7_ratio), 3)});
  }
  t1.print(std::cout);
  std::cout << "\nTermination sheds more load than degradation (smaller s_min, faster\n"
               "reset) at the price of dropping the LO tasks entirely; the closed\n"
               "forms overestimate by the reported factors.\n\n";

  // ---- 3: x tuning ----
  std::cout << "(3) overrun preparation: min-x vs x=1 vs per-task greedy\n";
  TextTable t3;
  t3.set_header({"U_bound", "inf@x=1 [%]", "med s_min min-x", "med s_min greedy",
                 "greedy wins [%]"});
  for (double u : u_bounds) {
    GenParams params;
    params.u_bound = u;
    int total = 0, inf_at_one = 0, greedy_wins = 0;
    std::vector<double> s_minx, s_greedy;
    for (int i = 0; i < n_sets / 2; ++i) {  // greedy is pricier: fewer sets
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      const MinXResult mx = min_x_for_lo(*skeleton);
      if (!mx.feasible) continue;
      ++total;
      if (std::isinf(min_speedup_value(skeleton->materialize(1.0, 2.0)))) ++inf_at_one;
      const double s_common = min_speedup_value(skeleton->materialize(mx.x, 2.0));
      const TightenResult greedy = tighten_lo_deadlines(skeleton->materialize(mx.x, 2.0));
      s_minx.push_back(s_common);
      s_greedy.push_back(greedy.s_min);
      if (definitely_lt(greedy.s_min, s_common, kSpeedTol)) ++greedy_wins;
    }
    t3.add_row({TextTable::num(u, 1),
                TextTable::num(total ? 100.0 * inf_at_one / total : 0.0, 0),
                TextTable::num(median(s_minx), 3), TextTable::num(median(s_greedy), 3),
                TextTable::num(total ? 100.0 * greedy_wins / total : 0.0, 0)});
  }
  t3.print(std::cout);
  std::cout << "\nWithout deadline shortening (x = 1) the required speedup is infinite\n"
               "for almost every set containing a HI task with C(HI) > C(LO); per-task\n"
               "greedy tightening refines the common factor further.\n\n";

  // ---- 4: EDF-VD vs demand-bound test ----
  std::cout << "(4) acceptance ratio, termination model, no speedup\n";
  TextTable t4;
  t4.set_header({"U_bound", "EDF-VD [%]", "demand-bound s<=1 [%]"});
  for (double u : u_bounds) {
    GenParams params;
    params.u_bound = u;
    int total = 0, vd_ok = 0, db_ok = 0;
    for (int i = 0; i < n_sets; ++i) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      ++total;
      if (edf_vd_schedulable(*skeleton).schedulable) ++vd_ok;
      const MinXResult mx = min_x_for_lo(*skeleton);
      if (!mx.feasible) continue;
      if (min_speedup_value(skeleton->materialize_terminating(mx.x)) <= 1.0) ++db_ok;
    }
    t4.add_row({TextTable::num(u, 1), TextTable::num(total ? 100.0 * vd_ok / total : 0.0, 0),
                TextTable::num(total ? 100.0 * db_ok / total : 0.0, 0)});
  }
  t4.print(std::cout);
  std::cout << "\nThe demand-bound test dominates the EDF-VD utilization test, as\n"
               "expected for implicit-deadline dual-criticality sets.\n";
  return 0;
}
