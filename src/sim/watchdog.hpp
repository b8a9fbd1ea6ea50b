// Online invariant checker over executed traces.
//
// The analysis (Theorem 2, Corollary 5 -- and core/resilience.hpp when a
// boost fault degrades them) promises a precise set of runtime facts. The
// watchdog replays a recorded `Trace` event-by-event and flags everything
// the active guarantee does not license:
//
//   * a deadline miss that is neither licensed per-mode nor per-task;
//   * a HI-mode dwell exceeding the analytic resetting time Delta_R;
//   * a reset (HI -> LO) taken while jobs were still pending, i.e. not at an
//     idle instant (Section IV's runtime rule);
//   * an execution segment at a speed the protocol cannot produce
//     (LO mode != lo_speed; HI mode outside the engaged/boosting/faulted
//     speed set);
//   * structurally broken traces (unordered times, double switches,
//     completions without releases).
//
// Violations are returned as structured records -- never asserts -- so the
// stress harness can shrink and replay them deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "sim/job.hpp"
#include "sim/simulate.hpp"
#include "support/tolerance.hpp"

namespace rbs::sim {

/// Which deadline misses the degraded-guarantee analysis licenses.
/// Populated from core/resilience.hpp's DegradedGuarantee (or left default:
/// nothing is licensed, the paper's full guarantee).
struct MissLicense {
  /// Misses while in HI mode are licensed (the achieved speed is below the
  /// requirement of the set as simulated -- the guarantee is void there).
  bool hi_mode_misses = false;
  /// Misses while in LO mode are licensed (e.g. delayed overrun detection
  /// broke the LO-mode test).
  bool lo_mode_misses = false;
  /// Per-task licenses regardless of mode (e.g. tasks the chosen fallback
  /// sacrifices).
  std::vector<std::size_t> tasks;
};

struct WatchdogOptions {
  MissLicense license;
  /// Analytic bound on every completed HI-mode dwell (ticks); +inf disables
  /// the check. Use the resetting time computed for the speed the episode
  /// actually achieved (core/resilience.hpp under faults).
  double delta_r_bound = kInfTime;
  /// Speeds the protocol may legitimately run at beyond {lo_speed, hi_speed}
  /// -- injected partial-boost and throttle speeds.
  std::vector<double> extra_allowed_speeds;
  double time_tolerance = kTimeTol.absolute;
  double speed_tolerance = kSpeedTol.relative;
};

struct Violation {
  enum class Kind : std::uint8_t {
    kUnlicensedMiss,
    kDwellExceeded,
    kResetNotIdle,
    kSpeedOutOfProtocol,
    kMalformedTrace,
  };
  Kind kind = Kind::kMalformedTrace;
  double time = 0.0;
  int task_index = -1;  ///< -1 when the violation is not task-specific
  std::uint64_t job_id = 0;
  std::string detail;
};

std::string to_string(Violation::Kind kind);

struct WatchdogReport {
  std::vector<Violation> violations;
  std::size_t events_checked = 0;
  std::size_t segments_checked = 0;
  std::size_t dwells_checked = 0;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Checks the recorded trace of `result` (requires SimConfig::record_trace)
/// against the protocol invariants under `opts`. Returns every violation
/// found; an empty report certifies the run against the active guarantee.
[[nodiscard]] WatchdogReport check_trace(const TaskSet& set, const SimConfig& cfg,
                                         const SimMetrics& result,
                                         const WatchdogOptions& opts = {});

/// Facade-report overload: checks the metrics of a SimReport produced by
/// Simulator::run(). Incomplete runs (report.completed == false) are checked
/// against their honest prefix horizon.
[[nodiscard]] inline WatchdogReport check_trace(const TaskSet& set, const SimConfig& cfg,
                                                const SimReport& report,
                                                const WatchdogOptions& opts = {}) {
  return check_trace(set, cfg, report.metrics, opts);
}

}  // namespace rbs::sim
