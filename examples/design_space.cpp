// Design-space exploration: choosing (x, y, s) for a random workload.
//
// Section V exposes three knobs -- overrun preparation x, service
// degradation y and HI-mode speedup s. This example screens the (x, y)
// plane with the closed-form Lemma 6 bound, verifies candidates with the
// exact Theorem 2 analysis, and picks the gentlest design satisfying a
// DVFS envelope (max speedup and max boost duration), preferring the least
// service degradation, then the least speedup.
//
// Usage: design_space [--u 0.7] [--seed 42] [--max-speed 2.0] [--max-boost-ms 5000]
#include <cmath>
#include <iostream>
#include <optional>

#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "rbs.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  if (const Status flags =
          args.check_flags({"u", "seed", "max-speed", "max-boost-ms"});
      !flags) {
    std::cerr << "error: " << flags.message() << "\n";
    return 2;
  }
  const double u_bound = args.get_double("u", 0.7);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double max_speed = args.get_double("max-speed", 2.0);
  const double max_boost_ms = args.get_double("max-boost-ms", 5000.0);
  const double ticks_per_ms = 10.0;  // generator ticks are 0.1 ms

  Rng rng(seed);
  GenParams params;
  params.u_bound = u_bound;
  const auto skeleton = generate_task_set(params, rng);
  if (!skeleton) {
    std::cout << "generator missed the utilization window; try another seed\n";
    return 1;
  }
  std::cout << "random workload: " << skeleton->size() << " tasks, U = "
            << system_utilization(*skeleton) << "\n";
  std::cout << "DVFS envelope: speedup <= " << max_speed << ", boost <= " << max_boost_ms
            << " ms\n\n";

  const MinXResult mx = min_x_for_lo(*skeleton);
  if (!mx.feasible) {
    std::cout << "not LO-mode schedulable\n";
    return 1;
  }

  TextTable t;
  t.set_header({"x", "y", "Lemma6 bound", "exact s_min", "Delta_R(s_max) [ms]", "feasible"});
  struct Design {
    double x, y, s_min, reset_ms;
  };
  std::optional<Design> best;

  for (double y : {1.5, 2.0, 3.0, 4.0}) {
    for (double x = std::max(0.2, std::ceil(mx.x * 10.0) / 10.0); x <= 0.91; x += 0.1) {
      const TaskSet candidate = skeleton->materialize(x, y);
      if (!lo_mode_schedulable(candidate)) continue;
      // Cheap closed-form screen first; only run the exact analysis when the
      // bound is anywhere near the envelope.
      const double screen = lemma6_speedup_bound(candidate);
      double s_min = screen;
      if (screen <= 2.0 * max_speed) s_min = min_speedup_value(candidate);
      const double reset_ms =
          resetting_time_value(candidate, max_speed) / ticks_per_ms;
      const bool feasible = s_min <= max_speed && reset_ms <= max_boost_ms;
      t.add_row({TextTable::num(x, 1), TextTable::num(y, 1), TextTable::num(screen, 3),
                 TextTable::num(s_min, 3), TextTable::num(reset_ms, 1),
                 feasible ? "yes" : ""});
      if (feasible) {
        // Prefer least degradation, then most preparation headroom (largest
        // x), then smallest required speedup.
        const bool better = !best || y < best->y || (y == best->y && x > best->x) ||
                            (y == best->y && x == best->x && s_min < best->s_min);
        if (better) best = Design{x, y, s_min, reset_ms};
      }
    }
  }
  t.print(std::cout);

  if (!best) {
    std::cout << "\nno design fits the envelope; raise max-speed, allow more\n"
                 "degradation, or terminate LO tasks in HI mode.\n";
    return 1;
  }
  std::cout << "\nchosen design: x = " << best->x << ", y = " << best->y
            << "  (run HI mode at " << max_speed << "x; s_min = " << best->s_min
            << ", recovery within " << best->reset_ms << " ms)\n"
            << "rationale: least service degradation first, then least deadline\n"
               "shortening, then smallest required speedup.\n";
  return 0;
}
