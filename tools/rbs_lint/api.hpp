// rbs_api: the project-wide public-API reachability pass (rule 17).
//
// Reports every free function with external linkage defined under src/ that
// no `main` in the scan reaches: code that only tests call, which no
// pipeline, bench, tool or example runs. The walk reads the function table
// the rt and det passes read (walk.hpp's CallGraph), over the same units,
// widened from calls to mentions:
//
//   roots   every free `main` in the scan. With none (the fixture corpus, a
//           src/-only scan) the pass reports nothing.
//   edges   any mention of a function's name in a reached function -- a
//           call, or a function passed as a pointer
//           (`append_in_ring_order(..., dbf_hi_breakpoints)`) -- and any
//           mention in a namespace-scope initializer
//           (`kCrc32Table = make_crc32_table()`), which runs before main.
//
// Resolution is by name and errs towards "reached": `a.f` and `p->f` reach
// every member named f; `Q::f` reaches Q's members named f, or every
// function named f when no indexed class is named Q (a namespace); a bare f
// reaches every function so named, members included, and a class name
// reaches its constructors. Members are walked for what they reach but
// never reported, and neither are functions in an unnamed namespace or
// declared `static`.
//
// Exceptions: `// rbs-lint: allow(api-unreached) <reason>` on the line that
// names the definition or the line before. An allow without a reason is
// itself reported, and suppresses nothing, so every exception says why it
// stays.
#pragma once

#include <vector>

#include "rbs_lint/lint.hpp"
#include "rbs_lint/walk.hpp"

namespace rbs::lint {

constexpr const char* kRuleApiUnreached = "api-unreached";

/// Runs the reachability walk over every unit at once (the project-wide call
/// graph), on the same lexed + indexed units the rt and det passes consume.
/// The caller applies rule enabling and baselines. Sorted by (file, line,
/// rule, message).
std::vector<Diagnostic> api_check(const std::vector<RtUnit>& units);

}  // namespace rbs::lint
