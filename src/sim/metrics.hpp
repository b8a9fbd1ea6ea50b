// Aggregated outcome of one simulation run.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "sim/trace.hpp"

namespace rbs::sim {

/// One missed deadline (the job keeps executing; the miss is counted once).
struct DeadlineMiss {
  std::size_t task_index = 0;
  std::uint64_t job_id = 0;
  double deadline = 0.0;
  Mode mode = Mode::LO;  ///< operation mode when the deadline passed
};

/// Per-task runtime statistics.
struct TaskStats {
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t misses = 0;
  double max_response = 0.0;    ///< worst completion - release (ticks)
  double total_response = 0.0;  ///< for mean response time

  double mean_response() const {
    return completed ? total_response / static_cast<double>(completed) : 0.0;
  }
};

/// The metrics of one simulation run (SimReport::metrics).
struct SimMetrics {
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_abandoned = 0;  ///< discarded carry-over jobs of dropped tasks
  std::uint64_t preemptions = 0;
  std::uint64_t mode_switches = 0;     ///< LO -> HI transitions
  std::uint64_t budget_fallbacks = 0;  ///< boost episodes cut short by the
                                       ///< turbo budget (LO tasks terminated)
  std::uint64_t faults_injected = 0;   ///< HI-mode episodes afflicted by an
                                       ///< injected boost fault (sim/faults)
  std::uint64_t throttle_downs = 0;    ///< injected mid-episode throttles
  std::uint64_t undetected_overruns = 0;  ///< overrunning HI jobs that
                                          ///< completed between budget polls
                                          ///< (delayed detection only)
  std::uint64_t jobs_lost_to_fault = 0;   ///< in-flight jobs destroyed by a
                                          ///< fail-stop core fault (not
                                          ///< counted as deadline misses)

  std::vector<DeadlineMiss> misses;
  std::vector<TaskStats> task_stats;  ///< indexed like the task set

  /// Duration of each completed HI-mode episode (switch -> idle reset), ticks.
  std::vector<double> hi_dwell_times;
  /// True when the run ended while still in HI mode (last dwell censored and
  /// not included in hi_dwell_times).
  bool ended_in_hi_mode = false;

  double busy_time = 0.0;  ///< time the processor executed jobs
  double horizon = 0.0;

  Trace trace;  ///< populated only when SimConfig::record_trace

  bool deadline_missed() const { return !misses.empty(); }
  double max_hi_dwell() const {
    double m = 0.0;
    for (double d : hi_dwell_times) m = d > m ? d : m;
    return m;
  }
};

}  // namespace rbs::sim
