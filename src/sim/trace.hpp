// Execution trace recording (optional; used by examples and debugging).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace rbs::sim {

/// A maximal interval during which the processor state was constant.
struct TraceSegment {
  double start = 0.0;
  double end = 0.0;
  /// Index of the executing task, or -1 for idle time.
  int task_index = -1;
  std::uint64_t job_id = 0;
  double speed = 1.0;
  Mode mode = Mode::LO;
};

/// A discrete scheduling event.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kRelease,
    kCompletion,
    kOverrunTrigger,  ///< a HI job exceeded C(LO): transition to HI mode
    kModeSwitchHi,
    kReset,           ///< idle instant: back to LO mode and nominal speed
    kDeadlineMiss,
    kJobAbandoned,    ///< a LO job aborted by a turbo-budget fallback
    kBudgetFallback,  ///< turbo budget exhausted: nominal speed, LO tasks
                      ///< terminated for the rest of the episode
    kFaultEngaged,       ///< an injected boost fault armed at this mode switch
    kThrottleDown,       ///< injected mid-episode throttle: speed collapsed
    kUndetectedOverrun,  ///< an overrunning HI job completed in LO mode
                         ///< between budget-monitor polls (no mode switch)
    kCoreFault,          ///< the core fail-stopped (FaultPlan::core_fail_at);
                         ///< the run ends at this instant
  };
  double time = 0.0;
  Kind kind = Kind::kRelease;
  int task_index = -1;
  std::uint64_t job_id = 0;
};

/// One released job with its sampled demand. Recorded so a run can be
/// replayed (and shrunk) deterministically via SimConfig::scripted_arrivals
/// without re-rolling the demand model.
struct JobRecord {
  int task_index = 0;
  std::uint64_t job_id = 0;
  double release = 0.0;
  double demand = 0.0;
};

struct Trace {
  std::vector<TraceSegment> segments;
  std::vector<TraceEvent> events;
  std::vector<JobRecord> jobs;
};

/// Human-readable name of an event kind.
std::string to_string(TraceEvent::Kind kind);

/// Inverse of to_string; false when `name` is not an event kind.
bool parse_event_kind(const std::string& name, TraceEvent::Kind& out);

}  // namespace rbs::sim
