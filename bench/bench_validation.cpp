// Analysis-vs-simulation validation (extra experiment, see DESIGN.md).
//
// For random task sets configured exactly like Fig. 6 (x minimal, y = 2),
// the discrete-event simulator runs at s = s_min with randomly overrunning
// HI jobs and sporadic release jitter. The analysis promises, and this
// harness checks on executed schedules, that
//
//   * no deadline is missed (Theorem 2), and
//   * every HI-mode episode ends within Delta_R(s) (Corollary 5).
//
// It reports how tight the dwell bound is in practice (observed/bound).
//
//   bench_validation [--sets 40] [--seed 1] [--horizon 200000]
#include "common.hpp"

#include <cmath>

#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "sim/simulate.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  const int n_sets = static_cast<int>(args.get_int("sets", 40));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double horizon = args.get_double("horizon", 200000.0);  // 20 s at 0.1 ms ticks
  bench::banner("Validation (analysis vs. simulation)",
                "Executed schedules at s = s_min: deadline misses must be zero and\n"
                "every HI-mode dwell must respect Delta_R.");

  Rng rng(seed);
  const double u_bounds[] = {0.4, 0.5, 0.6, 0.7, 0.8};

  TextTable t;
  t.set_header({"U_bound", "sets", "jobs", "switches", "misses", "max dwell/Delta_R",
                "mean dwell/Delta_R"});
  std::uint64_t total_misses = 0;
  sim::Simulator simulator;
  for (double u : u_bounds) {
    GenParams params;
    params.u_bound = u;
    params.period_min = 20;
    params.period_max = 2000;  // shorter periods: more mode switches per run
    std::uint64_t jobs = 0, switches = 0, misses = 0;
    std::vector<double> tightness;
    int used = 0;
    for (int i = 0; i < n_sets; ++i) {
      const auto skeleton = generate_task_set(params, rng);
      if (!skeleton) continue;
      const MinXResult mx = min_x_for_lo(*skeleton);
      if (!mx.feasible) continue;
      const TaskSet set = skeleton->materialize(mx.x, 2.0);
      // s_min, nudged above U_HI so Delta_R is finite (s_min can equal U_HI).
      const double s = std::max({min_speedup_value(set) + kSpeedTol.absolute,
                                 set.total_utilization(Mode::HI) + 0.02, 1e-3});
      const double delta_r = resetting_time_value(set, s);
      if (!std::isfinite(delta_r)) continue;
      ++used;

      sim::SimConfig cfg;
      cfg.horizon = horizon;
      cfg.hi_speed = s;
      cfg.demand.overrun_probability = 0.4;
      cfg.demand.base_fraction_min = 0.6;
      cfg.release_jitter = 0.2;
      cfg.seed = seed * 1000003 + static_cast<std::uint64_t>(i);
      const sim::SimMetrics r = simulator.run(set, cfg).value().metrics;

      jobs += r.jobs_released;
      switches += r.mode_switches;
      misses += r.misses.size();
      for (double dwell : r.hi_dwell_times) tightness.push_back(dwell / delta_r);
    }
    total_misses += misses;
    double max_tight = 0.0;
    for (double v : tightness) max_tight = std::max(max_tight, v);
    t.add_row({TextTable::num(u, 1), TextTable::num(static_cast<long long>(used)),
               TextTable::num(static_cast<long long>(jobs)),
               TextTable::num(static_cast<long long>(switches)),
               TextTable::num(static_cast<long long>(misses)),
               TextTable::num(max_tight, 3), TextTable::num(mean(tightness), 3)});
    if (definitely_gt(max_tight, 1.0, kSpeedTol)) {
      std::cout << "ERROR: observed dwell exceeded Delta_R at U_bound=" << u << "\n";
      return 1;
    }
  }
  t.print(std::cout);
  std::cout << "\ntotal deadline misses at s = s_min: " << total_misses
            << (total_misses == 0 ? "  (as guaranteed by Theorem 2)" : "  BOUND VIOLATED!")
            << "\n";
  return total_misses == 0 ? 0 : 1;
}
