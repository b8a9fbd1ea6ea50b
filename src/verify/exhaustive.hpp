// Exhaustive schedule-space exploration for tiny instances.
//
// The analyses are *sufficient*; random stress testing (bench_tightness)
// under-approximates the adversary. For very small task sets this module
// closes the gap by enumerating sporadic release patterns exactly:
//
//   * first releases on an integer grid [0, first_release_max];
//   * inter-arrival gaps from {T, T + gap_steps...} (sporadic slack);
//   * every HI job either behaves (C(LO)) or fully overruns (C(HI));
//
// and running each pattern through the discrete-event simulator (EDF is
// deterministic, so arrivals + demands determine the schedule). Extreme
// demands and integer-aligned arrivals are where EDF demand analysis attains
// its worst cases, making this a strong -- though still not complete --
// adversary. Used to validate s_min from below (no enumerated pattern may
// miss at s >= s_min) and to measure the true necessity gap on small
// examples.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/task.hpp"
#include "sim/config.hpp"

namespace rbs {

struct ExploreOptions {
  double horizon = 25.0;        ///< simulated length per pattern (ticks)
  Ticks first_release_max = 3;  ///< first release in {0..first_release_max}
  std::vector<Ticks> gap_extras = {0, 1};  ///< inter-arrival = T + extra
  std::uint64_t max_patterns = 2'000'000;  ///< enumeration budget
};

struct ExploreResult {
  std::uint64_t patterns_tested = 0;
  std::uint64_t patterns_missed = 0;  ///< patterns with >= 1 deadline miss
  bool budget_exhausted = false;      ///< enumeration stopped early
  /// One witnessing arrival script per task (empty when no miss was found).
  std::vector<std::vector<sim::SimConfig::ScriptedJob>> witness;
};

/// Enumerates patterns and simulates each at HI-mode speed `s`.
ExploreResult explore_patterns(const TaskSet& set, double s, const ExploreOptions& options = {});

/// Largest speed on the grid {step, 2*step, ...} <= ceiling at which some
/// enumerated pattern misses -- an empirical *lower* bound on the necessary
/// speedup (compare with Theorem 2's upper bound s_min). 0 when even the
/// smallest grid speed is safe.
double exhaustive_speedup_lower_bound(const TaskSet& set, double ceiling, double step = 0.125,
                                      const ExploreOptions& options = {});

}  // namespace rbs
