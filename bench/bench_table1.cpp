// Table I + Example 1 (Section III): the reconstructed example task set, its
// minimum HI-mode speedup without degradation (4/3) and with degraded
// service for tau2 (12/13 ~= 0.92 -- the system may even slow down).
//
//   bench_table1 [--csv <dir>]
#include "common.hpp"

#include "gen/paper_examples.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  bench::check_flags(args, {}, {bench::kCsvFlags});
  bench::banner("Table I / Example 1",
                "Reconstructed example task set (see DESIGN.md section 5) and the\n"
                "minimum processor speedup of Theorem 2 for both service variants.");

  const TaskSet base = table1_base();
  const TaskSet degraded = table1_degraded();

  TextTable params;
  params.set_header({"tau", "chi", "C(LO)", "C(HI)", "D(LO)", "D(HI)", "T(LO)", "T(HI)"});
  for (const McTask& t : degraded)
    params.add_row({t.name(), std::string(to_string(t.criticality())),
                    TextTable::num(static_cast<long long>(t.wcet(Mode::LO))),
                    TextTable::num(static_cast<long long>(t.wcet(Mode::HI))),
                    TextTable::num(static_cast<long long>(t.deadline(Mode::LO))),
                    TextTable::num(static_cast<long long>(t.deadline(Mode::HI))),
                    TextTable::num(static_cast<long long>(t.period(Mode::LO))),
                    TextTable::num(static_cast<long long>(t.period(Mode::HI)))});
  std::cout << "Task parameters (degraded variant shown; the base variant keeps\n"
               "tau2's original D(HI)=5, T(HI)=15):\n";
  params.print(std::cout);

  const AnalysisReport s_base = Analyzer().analyze(base).value();
  const AnalysisReport s_degraded = Analyzer().analyze(degraded).value();

  TextTable results;
  results.set_header({"variant", "LO-mode sched.", "s_min", "paper", "argmax delta"});
  results.add_row({"no degradation", s_base.lo_schedulable ? "yes" : "NO",
                   TextTable::num(s_base.s_min, 6), "4/3 = 1.3333",
                   TextTable::num(static_cast<long long>(s_base.s_min_argmax))});
  results.add_row({"D2(HI)=15, T2(HI)=20", s_degraded.lo_schedulable ? "yes" : "NO",
                   TextTable::num(s_degraded.s_min, 6), "~0.92",
                   TextTable::num(static_cast<long long>(s_degraded.s_min_argmax))});
  std::cout << "\nMinimum HI-mode speedup (Eq. 8):\n";
  results.print(std::cout);
  std::cout << "\nWith degradation s_min < 1: \"the system can actually slow down in HI\n"
               "mode despite the fact that tau1 overruns\" (Example 1).\n";

  if (auto csv = bench::open_csv(args, "table1.csv")) {
    csv->write_row({"variant", "s_min"});
    csv->write_row({"base", TextTable::num(s_base.s_min, 9)});
    csv->write_row({"degraded", TextTable::num(s_degraded.s_min, 9)});
  }
  return 0;
}
