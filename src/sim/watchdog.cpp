#include "sim/watchdog.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "support/tolerance.hpp"

namespace rbs::sim {

std::string to_string(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kUnlicensedMiss: return "unlicensed-miss";
    case Violation::Kind::kDwellExceeded: return "dwell-exceeded";
    case Violation::Kind::kResetNotIdle: return "reset-not-idle";
    case Violation::Kind::kSpeedOutOfProtocol: return "speed-out-of-protocol";
    case Violation::Kind::kMalformedTrace: return "malformed-trace";
  }
  return "?";
}

WatchdogReport check_trace(const TaskSet& set, const SimConfig& cfg, const SimMetrics& result,
                           const WatchdogOptions& opts) {
  WatchdogReport report;
  const double tol = kTimeTol.absolute;

  auto add = [&](Violation::Kind kind, double time, int task, std::uint64_t job,
                 std::string detail) {
    report.violations.push_back({kind, time, task, job, std::move(detail)});
  };

  if (!cfg.record_trace) {
    add(Violation::Kind::kMalformedTrace, 0.0, -1, 0,
        "trace not recorded; set SimConfig::record_trace");
    return report;
  }

  const auto task_licensed = [&](int task_index) {
    return task_index >= 0 &&
           std::find(opts.license.tasks.begin(), opts.license.tasks.end(),
                     static_cast<std::size_t>(task_index)) != opts.license.tasks.end();
  };

  // ---- event scan: mode protocol, idle-instant resets, dwells, misses ----
  Mode mode = Mode::LO;
  double switch_time = -1.0;
  double prev_time = 0.0;
  std::int64_t active = 0;
  std::uint64_t miss_events = 0;
  std::vector<std::pair<double, double>> hi_intervals;

  for (const TraceEvent& e : result.trace.events) {
    ++report.events_checked;
    if (e.time < prev_time - tol)
      add(Violation::Kind::kMalformedTrace, e.time, e.task_index, e.job_id,
          "events out of chronological order");
    prev_time = std::max(prev_time, e.time);
    if (e.task_index >= 0 && static_cast<std::size_t>(e.task_index) >= set.size())
      add(Violation::Kind::kMalformedTrace, e.time, e.task_index, e.job_id,
          "event references a task index outside the set");

    switch (e.kind) {
      case TraceEvent::Kind::kRelease:
        ++active;
        break;
      case TraceEvent::Kind::kCompletion:
      case TraceEvent::Kind::kJobAbandoned:
        if (--active < 0) {
          add(Violation::Kind::kMalformedTrace, e.time, e.task_index, e.job_id,
              "completion/abandonment without a matching release");
          active = 0;
        }
        break;
      case TraceEvent::Kind::kModeSwitchHi:
        if (mode == Mode::HI)
          add(Violation::Kind::kMalformedTrace, e.time, -1, 0,
              "switch->HI while already in HI mode");
        mode = Mode::HI;
        switch_time = e.time;
        break;
      case TraceEvent::Kind::kReset: {
        if (mode != Mode::HI) {
          add(Violation::Kind::kMalformedTrace, e.time, -1, 0, "reset->LO while in LO mode");
          break;
        }
        const double dwell = e.time - switch_time;
        ++report.dwells_checked;
        // Absolute slack from the caller, relative slack from the speed
        // policy (the admissible rounding scales with Delta_R's magnitude).
        const Tolerance dwell_tol{tol, kSpeedTol.relative};
        if (std::isfinite(opts.delta_r_bound) && dwell_tol.gt(dwell, opts.delta_r_bound)) {
          std::ostringstream os;
          os << "HI-mode dwell " << dwell << " exceeds analytic Delta_R = "
             << opts.delta_r_bound;
          add(Violation::Kind::kDwellExceeded, e.time, -1, 0, os.str());
        }
        if (active != 0) {
          std::ostringstream os;
          os << "reset with " << active << " job(s) still pending (not an idle instant)";
          add(Violation::Kind::kResetNotIdle, e.time, -1, 0, os.str());
        }
        hi_intervals.emplace_back(switch_time, e.time);
        mode = Mode::LO;
        break;
      }
      case TraceEvent::Kind::kDeadlineMiss: {
        ++miss_events;
        const bool licensed = (mode == Mode::HI && opts.license.hi_mode_misses) ||
                              (mode == Mode::LO && opts.license.lo_mode_misses) ||
                              task_licensed(e.task_index);
        if (!licensed) {
          std::ostringstream os;
          os << "deadline miss in " << rbs::to_string(mode)
             << " mode not licensed by the degraded-guarantee analysis";
          add(Violation::Kind::kUnlicensedMiss, e.time, e.task_index, e.job_id, os.str());
        }
        break;
      }
      default:
        break;  // overrun triggers, fault markers, fallbacks: informational
    }
  }
  if (mode == Mode::HI) hi_intervals.emplace_back(switch_time, kInfTime);

  if (miss_events != result.misses.size())
    add(Violation::Kind::kMalformedTrace, prev_time, -1, 0,
        "trace records " + std::to_string(miss_events) + " miss events but the summary has " +
            std::to_string(result.misses.size()));

  // ---- segment scan: every speed must be one the protocol can produce ----
  std::vector<double> hi_speeds = {1.0, cfg.hi_speed};
  for (const FaultSpec& spec : cfg.faults.episodes) {
    if (spec.achieved_speed > 0.0) hi_speeds.push_back(spec.achieved_speed);
    if (spec.throttle_speed > 0.0) hi_speeds.push_back(spec.throttle_speed);
  }
  const auto speed_allowed = [&](double speed, const std::vector<double>& allowed) {
    for (double a : allowed)
      if (std::abs(speed - a) <= kSpeedTol.relative * std::max(1.0, std::abs(a))) return true;
    return false;
  };

  std::size_t hi_idx = 0;
  double prev_end = 0.0;
  for (const TraceSegment& seg : result.trace.segments) {
    ++report.segments_checked;
    if (seg.end < seg.start - tol || seg.start < prev_end - tol)
      add(Violation::Kind::kMalformedTrace, seg.start, seg.task_index, seg.job_id,
          "segments overlap or run backwards");
    prev_end = std::max(prev_end, seg.end);

    const double mid = 0.5 * (seg.start + seg.end);
    while (hi_idx < hi_intervals.size() && hi_intervals[hi_idx].second <= mid) ++hi_idx;
    const bool in_hi = hi_idx < hi_intervals.size() && hi_intervals[hi_idx].first <= mid &&
                       mid < hi_intervals[hi_idx].second;
    if ((seg.mode == Mode::HI) != in_hi) {
      add(Violation::Kind::kMalformedTrace, seg.start, seg.task_index, seg.job_id,
          "segment mode disagrees with the event timeline");
      continue;
    }

    if (seg.mode == Mode::LO) {
      if (!speed_allowed(seg.speed, {1.0})) {
        std::ostringstream os;
        os << "LO-mode segment at speed " << seg.speed << " (nominal is 1)";
        add(Violation::Kind::kSpeedOutOfProtocol, seg.start, seg.task_index, seg.job_id,
            os.str());
      }
    } else if (!speed_allowed(seg.speed, hi_speeds)) {
      std::ostringstream os;
      os << "HI-mode segment at speed " << seg.speed
         << " outside the protocol's speed set";
      add(Violation::Kind::kSpeedOutOfProtocol, seg.start, seg.task_index, seg.job_id, os.str());
    }
  }

  return report;
}

}  // namespace rbs::sim
