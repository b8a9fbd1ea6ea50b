// Trace serialisation: dump an executed schedule as JSON for external
// tooling (plotting, schedule viewers) and read it back for replay.
//
// Format (one object):
//   {
//     "tasks":    ["tau1", "tau2", ...],
//     "segments": [{"start":..,"end":..,"task":..,"job":..,"speed":..,"mode":"LO"}, ...],
//     "events":   [{"time":..,"kind":"release","task":..,"job":..}, ...],
//     "jobs":     [{"task":..,"job":..,"release":..,"demand":..}, ...],
//     "summary":  {"jobs_released":.., "deadline_misses":.., "mode_switches":..,
//                  "budget_fallbacks":.., "faults_injected":.., "busy_time":..,
//                  "horizon":.., ...}
//   }
// "task" is the index into "tasks" (-1 = idle segment). The reader is a
// small hand-rolled JSON parser: field order is irrelevant, unknown fields
// are ignored (forward compatibility), and truncated or corrupt input is
// reported as a recoverable Status error, never an abort.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "sim/metrics.hpp"
#include "support/status.hpp"

namespace rbs::sim {

/// Writes the trace and summary of `result` as JSON to `os`.
/// `set` provides the task names; it must be the simulated set.
void write_trace_json(std::ostream& os, const TaskSet& set, const SimMetrics& result);

/// Convenience: serialise into a string.
std::string trace_to_json(const TaskSet& set, const SimMetrics& result);

/// The run-level counters of the "summary" section.
struct TraceSummary {
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_abandoned = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t mode_switches = 0;
  std::uint64_t budget_fallbacks = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t throttle_downs = 0;
  std::uint64_t undetected_overruns = 0;
  double busy_time = 0.0;
  double horizon = 0.0;
};

/// A deserialised trace file: task names, the full trace, and the summary.
struct TraceDocument {
  std::vector<std::string> tasks;
  Trace trace;
  TraceSummary summary;
};

/// Parses a JSON trace (the write_trace_json format). Round-trips losslessly:
/// parse_trace_json(trace_to_json(set, r)) reproduces segments, events, jobs
/// and summary bit-for-bit. Errors carry a byte offset and a description.
[[nodiscard]] Expected<TraceDocument> parse_trace_json(const std::string& text);

/// Reads and parses a JSON trace from a stream / file path.
[[nodiscard]] Expected<TraceDocument> read_trace_json(std::istream& in);
[[nodiscard]] Expected<TraceDocument> read_trace_json_file(const std::string& path);

}  // namespace rbs::sim
