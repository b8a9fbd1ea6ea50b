// Figure 3 / Example 2: service resetting time under dynamic speedup.
//
//  (a) the arrived-demand bound Sum_i ADB_HI(tau_i, Delta) of Theorem 4
//      against the supply s * Delta for s = 4/3 and s = 2 (Table I set, no
//      degradation): the first crossing is the resetting time Delta_R
//      (9 and 6 respectively for the reconstructed set);
//  (b) the parametric trend Delta_R(s), also with service degradation
//      enabled -- degradation resolves the overload faster.
//
//   bench_fig3 [--delta-max 24] [--csv <dir>]
#include "common.hpp"

#include <cmath>

#include "gen/paper_examples.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"delta-max"}, {bench::kCsvFlags});
  const Ticks delta_max = args.get_int("delta-max", 24);
  bench::banner("Figure 3 / Example 2",
                "Arrived demand after the mode switch vs. speeded-up supply, and the\n"
                "resetting-time trend Delta_R(s) (Theorem 4 / Corollary 5).");

  const TaskSet base = table1_base();
  const TaskSet degraded = table1_degraded();

  // ---- (a): demand vs supply, reset points ----
  std::cout << "(a) no service degradation\n";
  TextTable t;
  t.set_header({"Delta", "sum ADB_HI", "4/3*Delta", "2*Delta"});
  auto csv_a = bench::open_csv(args, "fig3a.csv");
  if (csv_a) csv_a->write_row({"delta", "adb_total", "supply_4_3", "supply_2"});
  for (Ticks d = 0; d <= delta_max; ++d) {
    const auto demand = static_cast<double>(adb_hi_total(base, d));
    t.add_row({TextTable::num(static_cast<long long>(d)), TextTable::num(demand, 0),
               TextTable::num(4.0 / 3.0 * static_cast<double>(d), 3),
               TextTable::num(2.0 * static_cast<double>(d), 3)});
    if (csv_a)
      csv_a->write_row_numeric({static_cast<double>(d), demand,
                                4.0 / 3.0 * static_cast<double>(d),
                                2.0 * static_cast<double>(d)});
  }
  t.print(std::cout);

  const double dr_smin = resetting_time_value(base, 4.0 / 3.0);
  const double dr_2 = resetting_time_value(base, 2.0);
  std::cout << "\nreset points: Delta_R(s=4/3) = " << TextTable::num(dr_smin, 4)
            << ",  Delta_R(s=2) = " << TextTable::num(dr_2, 4)
            << "   (paper: reduced to 6 at s=2)\n\n";

  // ---- (b): parametric trend ----
  std::cout << "(b) parametric trend Delta_R(s)\n";
  TextTable trend;
  trend.set_header({"s", "Delta_R (no degr.)", "Delta_R (degraded)"});
  auto csv_b = bench::open_csv(args, "fig3b.csv");
  if (csv_b) csv_b->write_row({"s", "delta_r_base", "delta_r_degraded"});
  for (double s = 1.0; s <= 4.01; s += 0.25) {
    const double a = resetting_time_value(base, s);
    const double b = resetting_time_value(degraded, s);
    trend.add_row({TextTable::num(s, 2), TextTable::num(a, 3), TextTable::num(b, 3)});
    if (csv_b) csv_b->write_row_numeric({s, a, b});
  }
  trend.print(std::cout);
  std::cout << "\nThere is a clear gain if the dynamic processor speedup is increased;\n"
               "service degradation further reduces the resetting time (Example 2).\n";
  return 0;
}
