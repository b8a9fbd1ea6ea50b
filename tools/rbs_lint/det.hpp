// rbs_det: the project-wide determinism discipline pass (rules 13-16).
//
// A reachability walk over the whole-project call graph rooted at functions
// annotated RBS_DET_PATH (src/support/det_annotations.hpp) -- the discipline
// walk the rt pass also runs (walk.hpp), retargeted from "must not allocate
// or block" to "every result byte must be reproducible across runs, machines
// and --jobs counts". Every function reachable from a det root must stay
// free of:
//
//   det-unordered-iter  iteration over std::unordered_{map,set,multimap,
//                       multiset}: range-for over an unordered-declared name,
//                       or .begin()/.end()/.cbegin()/... called on one. Bucket
//                       order is salted per process, so any walk that can
//                       reach output, journals, hashes or accumulators
//                       diverges between runs. Lookups (find/count/at) are
//                       deliberately allowed -- membership is order-free.
//   det-wallclock       steady_clock / system_clock / high_resolution_clock
//                       mentions and time()/clock_gettime()/localtime()-family
//                       calls. Watchdog arming and deadline stamping belong
//                       behind RBS_DET_ESCAPE(reason).
//   det-rng             rand()/srand()/drand48()-family calls,
//                       std::random_device, and *default-seeded* std engine
//                       construction (`std::mt19937_64 e;`). Explicitly
//                       seeded engines are allowed: the campaign layer's
//                       SplitMix64 per-item streams are exactly that.
//   det-fp-reassoc      floating-point compound assignment (+=, -=, *=, /=)
//                       on a double/float local inside the argument group of
//                       a submit(...) call -- a shared accumulator mutated
//                       from pool workers reduces in completion order, which
//                       reassociates the sum. Gather into per-item slots
//                       (`out[i] = ...`) and reduce serially instead.
//
// Escape hatches: RBS_DET_SAFE (audited leaf) and RBS_DET_ESCAPE(reason)
// stop the walk at that function -- it is neither scanned nor descended
// into. Annotations are honored at definition sites and at declaration sites
// (`void arm() RBS_DET_ESCAPE(watchdog_deadline_never_in_output);`), matched
// by (class, name). A reason-less escape is reported (under det-wallclock)
// and ignored, so it can never silently widen the audited surface.
//
// Call resolution is the discipline walk's: name-based and conservative (see
// walk.hpp). Unordered-declared names are collected across ALL units by final
// identifier, mirroring the mutex-identity approximation: `index_` declared
// unordered in one header flags iteration of `index_` on any det path.
// The compiler-side half of det-fp-reassoc is -ffp-contract=off on the
// core/sim targets, asserted by CI over compile_commands.json.
#pragma once

#include <string>
#include <vector>

#include "rbs_lint/lint.hpp"
#include "rbs_lint/walk.hpp"

namespace rbs::lint {

constexpr const char* kRuleDetUnorderedIter = "det-unordered-iter";
constexpr const char* kRuleDetWallclock = "det-wallclock";
constexpr const char* kRuleDetRng = "det-rng";
constexpr const char* kRuleDetFpReassoc = "det-fp-reassoc";

/// Runs the determinism walk over every unit at once (the project-wide call
/// graph); units are the same lexed + indexed translation units the rt pass
/// consumes. Diagnostics honor `// rbs-lint: allow(...)` comments; the caller
/// applies rule enabling and baselines. Sorted by (file, line, rule, message).
std::vector<Diagnostic> det_check(const std::vector<RtUnit>& units);

}  // namespace rbs::lint
