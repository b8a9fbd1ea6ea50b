// Certification report generator: the whole library in one CLI.
//
// Reads a task set from a file (see src/support/taskset_io.hpp for the
// format; defaults to the built-in Table I example) and produces the full
// offline argument for deploying it under temporary processor speedup:
// LO-mode processor-demand test, minimum speedup, resetting-time
// curve, DVFS level choice, turbo-envelope admissibility incl. the
// termination fallback, sensitivity headroom and overhead tolerance --
// finishing with a simulation smoke run at the chosen operating point.
// A DVFS transition latency (--latency, in ticks) applies to the speedup
// certificate [2], the resetting times [3] and the simulation [7].
//
// Usage: certify [--file tasks.txt] [--max-speed 2.0] [--max-boost 10000]
//                [--ticks-per-ms 10] [--latency 0]
#include <algorithm>
#include <cmath>
#include <iostream>
#include <variant>

#include "gen/paper_examples.hpp"
#include "rbs.hpp"
#include "sim/simulate.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/taskset_io.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  const double max_speed = args.get_double("max-speed", 2.0);
  const double max_boost = args.get_double("max-boost", 10000.0);
  const double ticks_per_ms = args.get_double("ticks-per-ms", 10.0);

  TaskSet set = table1_base();
  if (args.has("file")) {
    auto parsed = read_task_set_file(args.get_string("file", ""));
    if (std::holds_alternative<ParseError>(parsed)) {
      const ParseError& e = std::get<ParseError>(parsed);
      std::cerr << "parse error";
      if (e.line) std::cerr << " (line " << e.line << ")";
      std::cerr << ": " << e.message << "\n";
      return 2;
    }
    set = std::get<TaskSet>(parsed);
  }

  std::cout << "=== certification report ===\nworkload (" << set.size() << " tasks):\n";
  for (const McTask& t : set) std::cout << "  " << describe(t) << "\n";
  std::cout << "envelope: speedup <= " << max_speed << ", boost <= "
            << max_boost / ticks_per_ms << " ms\n\n";

  // 1. LO mode: the processor-demand test.
  const bool lo = lo_mode_schedulable(set);
  std::cout << "[1] LO-mode EDF: " << (lo ? "PASS" : "FAIL") << "\n";
  if (!lo) {
    std::cout << "    normal operation infeasible; nothing to certify\n";
    return 1;
  }

  // 2. Minimum speedup, with and without the DVFS transition latency.
  AnalysisRequest request{set, 1.0, 1.0, {.speedup = true, .reset = false, .lo = false}, {}};
  request.latency = static_cast<Ticks>(args.get_int("latency", 0));
  const double s_min = min_speedup_value(set);
  std::cout << "[2] minimum HI-mode speedup s_min = " << TextTable::num(s_min, 4)
            << (s_min <= max_speed ? "  (within envelope)" : "  EXCEEDS ENVELOPE") << "\n";
  // The certified speed the resetting times start from: a boost under a
  // latency, so floored at nominal speed.
  double s_cert = s_min;
  if (request.latency != 0) {
    const Expected<AnalysisReport> certificate = analyze(request);
    if (!certificate.is_ok()) {
      std::cerr << certificate.status().message() << "\n";
      return 2;
    }
    s_cert = std::max(1.0, certificate.value().s_min);
    std::cout << "    with " << request.latency
              << "-tick DVFS transition latency: s_min = " << TextTable::num(s_cert, 4)
              << (s_cert <= max_speed ? "" : "  EXCEEDS ENVELOPE") << "\n";
    if (s_cert > max_speed) {
      std::cout << "\nverdict: NOT CERTIFIABLE (transition latency)\n";
      return 1;
    }
  }
  // No speed serves demand due in a zero-length interval (s_min = +inf), and
  // the resetting times below need a finite one.
  if (!std::isfinite(s_cert)) {
    std::cout << "\nverdict: NOT CERTIFIABLE (no finite speedup)\n";
    return 1;
  }

  // 3. Resetting-time curve, under the same latency.
  std::cout << "[3] resetting time:";
  request.parts = {.speedup = false, .reset = true, .lo = false};
  for (double f : {1.0, 0.75, 0.5}) {
    const double s = max_speed * f + s_cert * (1.0 - f);
    request.speed = s;
    const double dr = analyze(request).value().delta_r;
    std::cout << "  dR(" << TextTable::num(s, 2) << "x) = "
              << TextTable::num(dr / ticks_per_ms, 1) << " ms";
  }
  std::cout << "\n";

  // 4. DVFS level choice on a generic menu up to the envelope ceiling.
  const FrequencyMenu menu = FrequencyMenu::cubic(
      {1.0, 1.0 + (max_speed - 1.0) / 3, 1.0 + 2 * (max_speed - 1.0) / 3, max_speed});
  const LevelChoice level = min_feasible_level(set, menu);
  const LevelChoice green = energy_optimal_level(set, menu);
  if (level.feasible)
    std::cout << "[4] slowest feasible DVFS level " << level.level.speed
              << "x (boost " << TextTable::num(level.delta_r / ticks_per_ms, 1)
              << " ms); energy-optimal level " << green.level.speed << "x\n";
  else
    std::cout << "[4] no DVFS level on the menu covers s_min\n";

  // 5. Turbo envelope incl. fallback.
  TurboEnvelope env;
  env.max_speedup = max_speed;
  env.max_boost_ticks = max_boost;
  const TurboReport turbo = check_turbo_envelope(set, env);
  std::cout << "[5] turbo envelope: speed " << (turbo.speed_ok ? "ok" : "FAIL")
            << ", duration " << (turbo.duration_ok ? "ok" : "exceeded")
            << ", termination fallback " << (turbo.fallback_safe ? "safe" : "unsafe")
            << " -> " << (turbo.admissible ? "ADMISSIBLE" : "NOT ADMISSIBLE") << "\n";

  // 6. Headroom.
  const auto gamma = max_tolerable_gamma(set, max_speed);
  const Ticks overhead = max_tolerable_context_switch(set, max_speed);
  std::cout << "[6] headroom: WCET uncertainty up to gamma = "
            << (gamma ? TextTable::num(*gamma, 2) : std::string("none"))
            << "; context-switch cost up to "
            << (overhead >= 0 ? TextTable::num(static_cast<long long>(overhead))
                              : std::string("none"))
            << " ticks\n";

  if (!turbo.admissible) {
    std::cout << "\nverdict: NOT CERTIFIABLE under this envelope\n";
    return 1;
  }

  // 7. Simulation smoke run at the chosen operating point.
  sim::SimConfig cfg;
  cfg.horizon = 100000.0;
  cfg.hi_speed = max_speed;
  cfg.demand.overrun_probability = 0.3;
  cfg.release_jitter = 0.1;
  cfg.speed_change_latency = static_cast<double>(request.latency);
  cfg.max_boost_duration = turbo.duration_ok ? 0.0 : max_boost;
  const sim::SimMetrics r = sim::Simulator().run(set, cfg).value().metrics;
  std::cout << "[7] simulation: " << r.jobs_released << " jobs, " << r.mode_switches
            << " overrun episodes, " << r.budget_fallbacks << " budget fallbacks, "
            << r.misses.size() << " deadline misses, worst dwell "
            << TextTable::num(r.max_hi_dwell() / ticks_per_ms, 1) << " ms\n";

  const bool ok = !r.deadline_missed();
  std::cout << "\nverdict: " << (ok ? "CERTIFIABLE" : "SIMULATION CONTRADICTS ANALYSIS (bug!)")
            << "\n";
  return ok ? 0 : 3;
}
