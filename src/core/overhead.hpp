// Runtime-overhead accounting.
//
// The analyses assume zero-cost dispatching. For a deployment-grade bound,
// classic conservative WCET inflation folds the context/dispatch cost
// delta_cs into the task parameters: each job incurs at most two scheduler
// invocations chargeable to itself (release and resume-after-preemption is
// charged to the preempting job), so C'(chi) = C(chi) + 2*delta_cs.
//
// inflate_for_overheads applies it; it fails (nullopt) when an inflated
// WCET no longer fits its deadline -- the set cannot be certified with this
// overhead.
#pragma once

#include <optional>

#include "core/task.hpp"

namespace rbs {

/// Returns the set inflated by `context_switch` (delta_cs per scheduler
/// invocation), or nullopt when some inflated WCET exceeds its deadline
/// (certification impossible at this overhead).
std::optional<TaskSet> inflate_for_overheads(const TaskSet& set, Ticks context_switch);

/// Largest context-switch cost (ticks, by bisection over integers) at which
/// the set remains schedulable with HI-mode speedup s; -1 if none.
Ticks max_tolerable_context_switch(const TaskSet& set, double s, Ticks ceiling = 1 << 20);

}  // namespace rbs
