// Quickstart: the core API in one page.
//
// Model a dual-criticality workload, check LO-mode schedulability, compute
// the minimum HI-mode speedup (Theorem 2) and the service resetting time
// (Corollary 5), and compare with the closed-form bounds of Section V.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "rbs.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  // The example takes no flags.
  if (const Status flags = CliArgs(argc, argv).check_flags({}); !flags) {
    std::cerr << "error: " << flags.message() << "\n";
    return 2;
  }

  // Two safety-critical (HI) tasks and two best-effort (LO) tasks. Ticks are
  // milliseconds here. HI tasks carry two WCETs: the optimistic C(LO) used
  // during normal operation and the certified pessimistic C(HI). Their
  // LO-mode deadlines are shortened (D(LO) < D(HI)) to prepare for overrun.
  const TaskSet set({
      McTask::hi("engine_ctrl", /*c_lo=*/2, /*c_hi=*/5, /*lo_deadline=*/6,
                 /*deadline=*/20, /*period=*/20),
      McTask::hi("brake_watch", /*c_lo=*/4, /*c_hi=*/7, /*lo_deadline=*/15,
                 /*deadline=*/50, /*period=*/50),
      // LO task whose service degrades in HI mode: period and deadline
      // stretched from 25 ms to 50 ms.
      McTask::lo("telemetry", /*c=*/5, /*deadline=*/25, /*period=*/25,
                 /*hi_deadline=*/50, /*hi_period=*/50),
      // LO task terminated in HI mode (Eq. 3).
      McTask::lo_terminated("infotainment", /*c=*/10, /*deadline=*/100, /*period=*/100),
  });

  std::cout << "Workload:\n";
  for (const McTask& t : set) std::cout << "  " << describe(t) << "\n";

  // 1. Normal (LO) mode must be schedulable by EDF at nominal speed.
  std::cout << "\nLO-mode EDF schedulable at speed 1: "
            << (lo_mode_schedulable(set) ? "yes" : "NO") << "\n";

  // 2. Minimum processor speedup to survive overruns (Theorem 2).
  const AnalysisReport report = Analyzer().analyze(set).value();
  std::cout << "Minimum HI-mode speedup s_min = " << report.s_min
            << "  (worst interval length " << report.s_min_argmax << " ms)\n";

  // 3. How long the boost lasts at a given speed (Corollary 5): the system
  // returns to LO mode and nominal speed at the first idle instant.
  for (double s : {report.s_min, 1.5, 2.0}) {
    std::cout << "  at speed " << s << ": back to normal within "
              << resetting_time_value(set, s) << " ms\n";
  }

  // 4. End-to-end verdict for a DVFS envelope of "2x for at most 1 second".
  const bool ok = system_schedulable(set, 2.0) && resetting_time_value(set, 2.0) <= 1000.0;
  std::cout << "\nDeployable with a 2x/1s turbo budget: " << (ok ? "YES" : "no") << "\n";
  return 0;
}
