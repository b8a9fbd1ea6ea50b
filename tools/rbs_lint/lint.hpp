// rbs_lint: the project's own static-analysis pass.
//
// A dependency-free analyzer -- lexical rules plus a lightweight semantic
// layer (semantic.hpp: scope tracking, declaration index, per-function lock
// dataflow) -- that enforces the soundness rules the demand-based MC analysis
// depends on (docs/static-analysis.md has the full rationale per rule):
//
//   float-eq           no raw ==/!= against floating-point literals; route
//                      boundary comparisons through support/tolerance.hpp
//   epsilon-literal    no inline comparison-epsilon literals (|v| < 1e-5)
//                      outside support/tolerance.hpp
//   nodiscard          header declarations returning Status/Expected must be
//                      [[nodiscard]] so call sites cannot drop error verdicts
//   nondet             no wall-clock / unseeded randomness in src/ (raw
//                      engines live only in gen/rng.hpp)
//   include-hygiene    #pragma once in headers, no <bits/stdc++.h>, no
//                      duplicate includes, no using-namespace in headers
//   lock-discipline    members annotated RBS_GUARDED_BY(m) only touched
//                      while an RAII guard on m is live in an enclosing
//                      scope or inside a function marked RBS_REQUIRES(m)
//   unchecked-expected Expected<T>/Status locals consumed via .value() /
//                      .message() with no ok-ness test earlier on the path
//   signal-safety      functions reachable from registered signal handlers
//                      restricted to the async-signal-safe allowlist (no
//                      locks, allocation, stdio, throw)
//   raii-guard         bare mutex .lock()/.unlock() outside the RAII
//                      wrapper types
//   rt-alloc           no heap allocation (new/malloc family, construction of
//                      allocating std types) in functions reachable from
//                      RBS_HOT_PATH roots (rt.hpp on walk.hpp's
//                      project-wide call graph)
//   rt-block           no mutex/condvar operations, RAII guard construction,
//                      blocking I/O or sleeps reachable from RBS_HOT_PATH
//   rt-unbounded       no throw, recursion cycles, or reason-less
//                      RBS_RT_ESCAPE reachable from RBS_HOT_PATH
//   det-unordered-iter no iteration over std::unordered_{map,set} in
//                      functions reachable from RBS_DET_PATH roots (det.hpp:
//                      bucket order is salted per process)
//   det-wallclock      no steady_clock/system_clock/time() reads reachable
//                      from RBS_DET_PATH (watchdog arming goes behind
//                      RBS_DET_ESCAPE(reason))
//   det-rng            no rand()/random_device/default-seeded std engines
//                      reachable from RBS_DET_PATH; seeded per-item streams
//                      only
//   det-fp-reassoc     no floating-point accumulation inside submit(...)
//                      reachable from RBS_DET_PATH; gather into per-item
//                      slots and reduce serially
//   api-unreached      every free function with external linkage under src/
//                      is reached from a main in the scan (api.hpp: the
//                      public API no pipeline reaches), or allowed with a
//                      reason
//
// Suppression: a comment `// rbs-lint: allow(rule)` (comma-separated list
// accepted) silences the named rule on its own line and the next line.
// Legacy findings can also be grandfathered in a baseline file (one
// `rule|path-suffix|message` entry per line; see parse_baseline).
//
// The engine lints text it is handed -- the CLI driver (main.cpp) walks the
// tree, and tests/lint/rbs_lint_test.cpp replays a fixture corpus through
// lint_paths() and golden-diffs the diagnostics.
#pragma once

#include <string>
#include <vector>

namespace rbs::lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  /// Rules to run; empty means every rule.
  std::vector<std::string> rules;
  /// Path substrings to skip entirely (e.g. "lint/corpus").
  std::vector<std::string> excludes;
  /// Worker threads for the per-file scan in lint_paths (1 = serial). Output
  /// is byte-identical at any value; the whole-program passes (walk.hpp)
  /// always run serially after.
  unsigned jobs = 1;
};

struct RuleInfo {
  std::string name;
  std::string summary;  ///< one-line description for --list-rules
};

/// Every implemented rule with its one-line summary, in canonical order.
std::vector<RuleInfo> all_rules();

/// Names of every implemented rule, in canonical order.
std::vector<std::string> all_rule_names();

/// Lints one translation unit. `path` is used for diagnostics and for the
/// path-scoped rules (nondet applies under src/, tolerance.hpp is exempt
/// from epsilon-literal, gen/rng.hpp may name raw engines). `extra_guarded`
/// carries "class::member=mutex" facts harvested from resolved includes so
/// lock-discipline sees members declared in headers (lint_paths fills it).
std::vector<Diagnostic> lint_source(const std::string& path, const std::string& text,
                                    const Options& options = {},
                                    const std::vector<std::string>& extra_guarded = {});

/// Walks files and directories (recursing into *.hpp / *.cpp / *.h / *.cc),
/// lints each, and returns all diagnostics sorted by (file, line, rule).
/// Quoted includes are resolved against the including file's directory and
/// its ancestors so RBS_GUARDED_BY members declared in headers are enforced
/// in the matching .cpp. Paths are normalized (./ stripped, duplicate
/// separators collapsed) before walking, matching, and reporting.
/// Unreadable paths produce a file-level diagnostic with rule "io-error".
std::vector<Diagnostic> lint_paths(const std::vector<std::string>& paths,
                                   const Options& options = {});

/// Lexically normalizes a path for exclusion matching and reporting:
/// strips "./", collapses duplicate separators, resolves "a/b/../c".
std::string normalize_path(const std::string& path);

/// "path:line: error: [rule] message" -- the single diagnostic format.
std::string format(const Diagnostic& diagnostic);

/// All diagnostics as a JSON array of {file, line, rule, message} objects
/// (stable key order, newline-terminated) for tooling to consume.
std::string format_json(const std::vector<Diagnostic>& diagnostics);

// --- baseline suppression --------------------------------------------------

/// One grandfathered finding: `rule|path-suffix|message` in the file.
struct BaselineEntry {
  std::string rule;
  std::string path;  ///< matched as a whole-component suffix of the diagnostic path
  std::string message;
};

/// Parses baseline text: one entry per line, fields separated by '|';
/// blank lines and lines starting with '#' are ignored.
std::vector<BaselineEntry> parse_baseline(const std::string& text);

/// The baseline line that would suppress this diagnostic.
std::string to_baseline_line(const Diagnostic& diagnostic);

/// Removes diagnostics matched by the baseline (rule and message equal,
/// entry path a whole-component suffix of the diagnostic path). Returns the
/// number suppressed.
std::size_t apply_baseline(std::vector<Diagnostic>& diagnostics,
                           const std::vector<BaselineEntry>& baseline);

}  // namespace rbs::lint
