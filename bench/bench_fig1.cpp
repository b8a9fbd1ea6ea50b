// Figure 1: minimum speedup and demand bound functions (Example 1).
//
// Prints the total HI-mode demand Sum_i DBF_HI(tau_i, Delta) against the
// speeded-up supply s_min * Delta for (a) the Table I set without service
// degradation (s_min = 4/3) and (b) with degraded service for tau2
// (s_min = 12/13). The supply line computed from Theorem 2 upper-bounds the
// demand everywhere -- exactly what the paper's plot shows.
//
//   bench_fig1 [--delta-max 40] [--csv <dir>]
#include "common.hpp"

#include "gen/paper_examples.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"delta-max"}, {bench::kCsvFlags});
  const Ticks delta_max = args.get_int("delta-max", 40);
  bench::banner("Figure 1", "Total HI-mode demand vs. minimum-speedup supply (Lemma 1 +\n"
                            "Theorem 2) for the Table I example.");

  struct Variant {
    const char* name;
    TaskSet set;
  };
  const Variant variants[] = {
      {"(a) no service degradation", table1_base()},
      {"(b) service degradation", table1_degraded()},
  };

  auto csv = bench::open_csv(args, "fig1.csv");
  if (csv) csv->write_row({"variant", "delta", "dbf_hi_total", "supply_smin"});

  for (const Variant& v : variants) {
    const double s_min = min_speedup_value(v.set);
    std::cout << v.name << "  (s_min = " << TextTable::num(s_min, 4) << ")\n";
    TextTable t;
    t.set_header({"Delta", "sum DBF_HI", "s_min*Delta", "slack"});
    for (Ticks d = 0; d <= delta_max; ++d) {
      const auto demand = static_cast<double>(dbf_hi_total(v.set, d));
      const double supply = s_min * static_cast<double>(d);
      t.add_row({TextTable::num(static_cast<long long>(d)), TextTable::num(demand, 0),
                 TextTable::num(supply, 3), TextTable::num(supply - demand, 3)});
      if (csv)
        csv->write_row({v.name, std::to_string(d), TextTable::num(demand, 0),
                        TextTable::num(supply, 6)});
      if (definitely_lt(supply, demand, kSpeedTol)) {
        std::cout << "ERROR: demand exceeds supply at Delta=" << d << "\n";
        return 1;
      }
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Check: the computed minimum speedup factors do guarantee HI-mode\n"
               "schedulability (supply >= demand at every Delta).\n";
  return 0;
}
