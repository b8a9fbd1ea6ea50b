// Real-time discipline annotations, machine-checked by rbs_rt
// (tools/rbs_lint, rules rt-alloc / rt-block / rt-unbounded).
//
// The analysis verdicts hinge on tight inner loops -- the fused breakpoint
// sweep (core/analysis) and the breakpoint merger it drives, the demand
// totals (core/dbf, core/adb), the simulator step loop (sim/simulator) and
// the campaign per-item drain. Those paths must
// stay free of hidden heap allocation, locking, blocking I/O, exceptions and
// unbounded recursion, or throughput collapses under the production workloads
// the ROADMAP targets (billions of simulated jobs per host).
//
// The contract mirrors the thread-safety layer (thread_annotations.hpp):
// annotate the entry points, let the analyzer walk the whole call tree.
//
//   RBS_HOT_PATH          function is a real-time hot-path root: rbs_rt
//                         BFS-walks every function reachable from it (across
//                         files, via quoted includes) and flags heap
//                         allocation, mutex/condvar use, blocking I/O,
//                         `throw`, and recursion cycles anywhere in the tree.
//   RBS_RT_SAFE           audited leaf: the body has been reviewed as
//                         allocation- and blocking-free in ways the lexical
//                         walk cannot prove (e.g. placement new into an
//                         arena). The walk neither scans nor descends into
//                         it. Use sparingly; document at the definition.
//   RBS_RT_ESCAPE(why)    justified exception: the body may allocate or
//                         block, and that is acceptable for the stated
//                         reason (cold error paths, opt-in tracing). The
//                         reason is mandatory -- an unquoted snake_case
//                         phrase, e.g. RBS_RT_ESCAPE(error_path_runs_once).
//                         rbs_rt rejects an empty reason.
//
// The macros expand to nothing on every compiler; they exist for rbs_rt
// (which recognizes them lexically at declaration and definition sites) and
// for the human reader. Growth of *pre-sized* containers (push_back into a
// reserved scratch buffer, priority-queue churn inside a merger) is allowed
// by rule rt-alloc; *constructing* an allocating type inside the hot tree is
// not -- hoist it into a reusable member, as the simulator's scratch buffers
// do.
#pragma once

#define RBS_HOT_PATH
#define RBS_RT_SAFE
#define RBS_RT_ESCAPE(...)
