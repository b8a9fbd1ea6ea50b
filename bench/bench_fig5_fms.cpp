// Figure 5: experimental results on the flight management system.
//
//  (a) contour of the *exact* required HI-mode speedup (Theorem 2) over the
//      design plane (x, y): decreasing x (better safety preparation) or
//      increasing y (more service degradation) reduces the required speedup;
//  (b) contour of the resetting time Delta_R (Corollary 5) over (s, gamma),
//      where gamma = C(HI)/C(LO) is the WCET uncertainty of HI tasks; x is
//      set to the minimum preserving LO-mode schedulability and y = 2.
//
// Headline check: with a speedup of 2 the FMS recovers in < 3 s in the worst
// case, "indicating that dynamic processor speedup could indeed only be
// temporarily required". 1 tick = 1 ms.
//
//   bench_fig5_fms [--gamma 2.0] [--csv <dir>]
#include "common.hpp"

#include <cmath>

#include "gen/fms.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"gamma"}, {bench::kCsvFlags});
  const double gamma_a = args.get_double("gamma", 2.0);
  bench::banner("Figure 5 (FMS)",
                "Required speedup over (x, y) and resetting time over (s, gamma) for\n"
                "the 7 HI + 4 LO flight-management task set (substituted WCETs,\n"
                "see DESIGN.md section 5). 1 tick = 1 ms.");

  // ---- (a): contour of required speedup over (x, y) ----
  const ImplicitSet fms_a = fms_task_set(gamma_a);
  const MinXResult mx = min_x_for_lo(fms_a);
  if (!mx.feasible) {
    std::cout << "FMS set not LO-mode schedulable -- model error\n";
    return 1;
  }
  std::cout << "(a) required speedup s_min(x, y), gamma = " << gamma_a
            << "   (min LO-schedulable x = " << TextTable::num(mx.x, 3) << ")\n";

  const double ys[] = {1.0, 1.5, 2.0, 3.0, 4.0};
  TextTable ta;
  ta.set_header({"x \\ y", "1", "1.5", "2", "3", "4"});
  auto csv_a = bench::open_csv(args, "fig5a.csv");
  if (csv_a) csv_a->write_row({"x", "y", "s_min"});
  for (double x = std::ceil(mx.x * 20.0) / 20.0; x <= 0.96; x += 0.05) {
    std::vector<std::string> row{TextTable::num(x, 2)};
    for (double y : ys) {
      const TaskSet set = fms_a.materialize(x, y);
      const double s = min_speedup_value(set);
      row.push_back(TextTable::num(s, 3));
      if (csv_a) csv_a->write_row_numeric({x, y, s});
    }
    ta.add_row(std::move(row));
  }
  ta.print(std::cout);
  std::cout << "\nContours: with decreasing x (better safety preparation) or increasing\n"
               "y (more service degradation), the required speedup is reduced.\n\n";

  // ---- (b): contour of resetting time over (s, gamma) ----
  std::cout << "(b) service resetting time Delta_R(s, gamma) in ms, y = 2, x = min\n";
  const double gammas[] = {1.0, 1.5, 2.0, 2.5, 3.0};
  TextTable tb;
  tb.set_header({"s \\ gamma", "1", "1.5", "2", "2.5", "3"});
  auto csv_b = bench::open_csv(args, "fig5b.csv");
  if (csv_b) csv_b->write_row({"s", "gamma", "delta_r_ms"});
  double worst_at_2 = 0.0;
  for (double s = 1.2; s <= 3.01; s += 0.2) {
    std::vector<std::string> row{TextTable::num(s, 1)};
    for (double gamma : gammas) {
      const ImplicitSet skel = fms_task_set(gamma);
      const auto set = bench::materialize_min_x(skel, 2.0);
      double dr = std::numeric_limits<double>::infinity();
      if (set) dr = resetting_time_value(*set, s);
      row.push_back(TextTable::num(dr, 0));
      if (csv_b) csv_b->write_row_numeric({s, gamma, dr});
      if (approx_eq(s, 2.0, kTimeTol) && std::isfinite(dr)) worst_at_2 = std::max(worst_at_2, dr);
    }
    tb.add_row(std::move(row));
  }
  tb.print(std::cout);
  std::cout << "\nWith increasing gamma or decreasing s the resetting time grows.\n"
            << "Worst-case recovery at s = 2 across gamma in [1, 3]: "
            << TextTable::num(worst_at_2, 0) << " ms"
            << (worst_at_2 < 3000.0 ? "  (< 3 s, matching the paper)" : "  (>= 3 s!)")
            << "\n";
  return 0;
}
