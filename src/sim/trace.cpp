#include "sim/trace.hpp"

namespace rbs::sim {

std::string to_string(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kRelease: return "release";
    case TraceEvent::Kind::kCompletion: return "completion";
    case TraceEvent::Kind::kOverrunTrigger: return "overrun";
    case TraceEvent::Kind::kModeSwitchHi: return "switch->HI";
    case TraceEvent::Kind::kReset: return "reset->LO";
    case TraceEvent::Kind::kDeadlineMiss: return "MISS";
    case TraceEvent::Kind::kJobAbandoned: return "abandoned";
    case TraceEvent::Kind::kBudgetFallback: return "budget-fallback";
    case TraceEvent::Kind::kFaultEngaged: return "fault";
    case TraceEvent::Kind::kThrottleDown: return "throttle";
    case TraceEvent::Kind::kUndetectedOverrun: return "undetected-overrun";
    case TraceEvent::Kind::kCoreFault: return "core-fault";
  }
  return "?";
}

// rbs-lint: allow(api-unreached) -- the JSON trace reader's event names.
bool parse_event_kind(const std::string& name, TraceEvent::Kind& out) {
  using Kind = TraceEvent::Kind;
  static constexpr Kind kAll[] = {
      Kind::kRelease,       Kind::kCompletion,     Kind::kOverrunTrigger,
      Kind::kModeSwitchHi,  Kind::kReset,          Kind::kDeadlineMiss,
      Kind::kJobAbandoned,  Kind::kBudgetFallback, Kind::kFaultEngaged,
      Kind::kThrottleDown,  Kind::kUndetectedOverrun, Kind::kCoreFault,
  };
  for (Kind k : kAll)
    if (to_string(k) == name) {
      out = k;
      return true;
    }
  return false;
}

}  // namespace rbs::sim
