// rbs_rt: the project-wide real-time discipline pass (rules 10-12).
//
// A reachability walk over the whole-project call graph rooted at functions
// annotated RBS_HOT_PATH (src/support/rt_annotations.hpp). Every function
// reachable from a hot root -- across files; lint_paths hands the pass every
// lexed translation unit, headers included -- must stay free of:
//
//   rt-alloc      heap allocation: `new`/`delete`, the malloc family,
//                 make_unique/make_shared/to_string, and *construction* of
//                 allocating std types (vector/string/function/map/...).
//                 Growth of pre-sized containers (push_back into a reserved
//                 scratch buffer) is deliberately allowed: hoisting the
//                 construction is exactly the fix the rule demands.
//   rt-block      mutex/condvar operations (.lock()/.wait()/notify_*),
//                 RAII guard construction (LockGuard, std::lock_guard, ...),
//                 blocking I/O (fopen/fsync/printf/stream objects), sleeps.
//   rt-unbounded  `throw`, recursion cycles in the reachable call graph, and
//                 RBS_RT_ESCAPE annotations missing their mandatory reason.
//
// Escape hatches: RBS_RT_SAFE (audited leaf) and RBS_RT_ESCAPE(reason) stop
// the walk at that function -- it is neither scanned nor descended into.
// Annotations are honored at definition sites and at declaration sites
// (`void step() RBS_HOT_PATH;` in a class body), matched by (class, name).
//
// The walk, its call resolution and its limits are the discipline walk's
// (walk.hpp, shared with the det pass); this pass adds its body scanner and
// the recursion check over confident call edges.
#pragma once

#include <vector>

#include "rbs_lint/lint.hpp"
#include "rbs_lint/walk.hpp"

namespace rbs::lint {

constexpr const char* kRuleRtAlloc = "rt-alloc";
constexpr const char* kRuleRtBlock = "rt-block";
constexpr const char* kRuleRtUnbounded = "rt-unbounded";

/// Runs the discipline walk over every unit at once (the project-wide call
/// graph). Diagnostics honor `// rbs-lint: allow(...)` comments; the caller
/// applies rule enabling and baselines. Sorted by (file, line, rule, message).
std::vector<Diagnostic> rt_check(const std::vector<RtUnit>& units);

}  // namespace rbs::lint
