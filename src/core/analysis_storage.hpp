// Caller-owned working storage of the analysis.
//
// analyze_tasks (core/analysis.hpp), the library's one analysis
// implementation, builds its tables in storage that its caller owns: the
// LO-mode demand table, the fused DBF_HI/ADB_HI stop table, the task order
// that lays that table out in ring order, and the merger that walks it.
// Analyzer::analyze and Analyzer::fits use a local storage per call. The
// multicore probes -- partition_first_fit, the span form of find_fallback
// and multi::analyze_resilience -- keep one for a whole call, so a probe
// allocates nothing once the storage has held a set as large.
//
// Every table is rebuilt from the tasks at each call, and nothing one call
// leaves behind reaches the next call's report (docs/ANALYSIS.md §3). The
// storage lives in this header of its own because core/edf.hpp, which
// defines the LO-mode table, includes core/analysis.hpp. A storage serves
// one thread at a time; the library keeps no thread-local or global one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/breakpoints.hpp"
#include "core/edf.hpp"

namespace rbs {

/// A caller constructs one and passes it to analyze_tasks; only
/// analyze_tasks reads or writes the members.
struct AnalysisStorage {
  LoDemandTable lo;                   ///< the LO-mode test's table
  std::vector<TaggedSeq> stops;       ///< the fused DBF_HI/ADB_HI table, in ring order
  std::vector<std::uint32_t> order;   ///< task indices by T(HI), laying out `stops`
  TaggedBreakpointMerger merger;      ///< the fused sweep's merger over `stops`
};

}  // namespace rbs
