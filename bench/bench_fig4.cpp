// Figure 4 / Examples 3-4: closed-form trade-offs of Section V.
//
//  (a) Lemma 6: the speedup bound s_bar(x, y) on the Table I set brought
//      into implicit-deadline normal form (Eqs. 13-14) -- decreasing x (more
//      overrun preparation) or increasing y (more degradation) lowers the
//      required speedup;
//  (b) Lemma 7: the resetting-time bound Delta_R(s) = Sum C(HI) / (s - s_min)
//      for several (artificially fixed) values of s_min, i.e. of the HI-mode
//      system load.
//
//   bench_fig4 [--csv <dir>]
#include "common.hpp"

#include "gen/paper_examples.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  bench::check_flags(args, {}, {bench::kCsvFlags});
  bench::banner("Figure 4 / Examples 3-4",
                "Closed-form trade-offs between overrun preparation x, service\n"
                "degradation y, speedup and resetting time (Lemmas 6-7).");

  const ImplicitSet skel = table1_implicit();

  // ---- (a): s_bar(x, y) ----
  std::cout << "(a) speedup bound s_bar(x, y), Lemma 6\n";
  const double ys[] = {1.0, 1.5, 2.0, 3.0};
  TextTable ta;
  ta.set_header({"x", "y=1", "y=1.5", "y=2", "y=3"});
  auto csv_a = bench::open_csv(args, "fig4a.csv");
  if (csv_a) csv_a->write_row({"x", "y1", "y1.5", "y2", "y3"});
  for (double x = 0.30; x <= 0.92; x += 0.05) {
    std::vector<std::string> row{TextTable::num(x, 2)};
    std::vector<double> csv_row{x};
    for (double y : ys) {
      const double s_bar = lemma6_speedup_bound(skel, x, y);
      row.push_back(TextTable::num(s_bar, 4));
      csv_row.push_back(s_bar);
    }
    ta.add_row(std::move(row));
    if (csv_a) csv_a->write_row_numeric(csv_row);
  }
  ta.print(std::cout);
  std::cout << "\nSmaller x (more preparation) or larger y (more degradation) reduces\n"
               "the required speedup (Example 3).\n\n";

  // ---- (b): Delta_R(s; s_min) ----
  std::cout << "(b) resetting-time bound Delta_R(s), Lemma 7\n";
  double total_c_hi = 0.0;
  for (const ImplicitTask& t : skel.tasks()) total_c_hi += static_cast<double>(t.c_hi);
  const double s_mins[] = {1.0, 1.2, 1.4, 1.6};
  TextTable tb;
  tb.set_header({"s", "s_min=1.0", "s_min=1.2", "s_min=1.4", "s_min=1.6"});
  auto csv_b = bench::open_csv(args, "fig4b.csv");
  if (csv_b) csv_b->write_row({"s", "smin1.0", "smin1.2", "smin1.4", "smin1.6"});
  for (int i = 11; i <= 30; ++i) {
    const double s = static_cast<double>(i) / 10.0;  // exact grid: s == s_min
                                                     // compares cleanly below
    std::vector<std::string> row{TextTable::num(s, 2)};
    std::vector<double> csv_row{s};
    for (double s_min : s_mins) {
      const double dr = lemma7_reset_bound_raw(total_c_hi, s_min, s);
      row.push_back(TextTable::num(dr, 3));
      csv_row.push_back(dr);
    }
    tb.add_row(std::move(row));
    if (csv_b) csv_b->write_row_numeric(csv_row);
  }
  tb.print(std::cout);
  std::cout << "\nWith artificially increased s_min (more HI-mode load) the resetting\n"
               "time grows; it diverges as s approaches s_min (Example 4).\n";
  return 0;
}
