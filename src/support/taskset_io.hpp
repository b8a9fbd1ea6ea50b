// Reading and writing task sets as plain text, so the CLI tools can operate
// on externally supplied workloads.
//
// Format: one task per line, comma-separated,
//
//     # name, crit, C(LO), C(HI), D(LO), D(HI), T(LO), T(HI)
//     guidance, HI, 5, 10, 50, 100, 100, 100
//     logging,  LO, 50, 50, 1000, inf, 1000, inf
//
// '#' starts a comment; blank lines are ignored; "inf" in D(HI)/T(HI) of a
// LO task encodes termination (Eq. 3). Parsing validates the model
// constraints of Section II and reports precise line/field diagnostics.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "core/task.hpp"
#include "support/status.hpp"

namespace rbs {

struct ParseError {
  int line = 0;          ///< 1-based line number (0 = file-level problem)
  std::string message;
};

/// Parses a task set from a stream; returns either the set or the first
/// error encountered.
[[nodiscard]] std::variant<TaskSet, ParseError> read_task_set(std::istream& in);

/// Parses a task set from a file path.
[[nodiscard]] std::variant<TaskSet, ParseError> read_task_set_file(const std::string& path);

/// Writes `set` in the same format (round-trips through read_task_set).
void write_task_set(std::ostream& out, const TaskSet& set);

/// Writes to a file; returns false if the file cannot be opened.
[[nodiscard]] bool write_task_set_file(const std::string& path, const TaskSet& set);

/// A task set together with its core assignment (core/partition.hpp's
/// output shape): assignment[c] lists task indices on core c.
struct PartitionedTaskSet {
  TaskSet set;
  std::vector<std::vector<std::size_t>> assignment;
};

/// Multiprocessor task-set files extend the flat format with two comment
/// directives -- comments to every flat reader, so a partitioned file loads
/// as a plain TaskSet anywhere the partition is irrelevant:
///
///     # cores 2
///     # core 0
///     guidance, HI, 5, 10, 50, 100, 100, 100
///     # core 1
///     logging,  LO, 50, 50, 1000, inf, 1000, inf
///
/// `# cores M` (required, before the first task) declares the core count;
/// `# core c` (0 <= c < M) opens a group, and every task line belongs to the
/// most recent group. Empty cores are legal (a marker with no tasks). Task
/// indices in the returned assignment refer to FILE ORDER; the writer below
/// emits tasks grouped by core, so a round-trip preserves each core's task
/// collection while renumbering tasks in core-grouped order.
[[nodiscard]] Expected<PartitionedTaskSet> load_partitioned_task_set(std::istream& in);
[[nodiscard]] Expected<PartitionedTaskSet> load_partitioned_task_set_file(const std::string& path);

/// Writes the partitioned format (see above). Only tasks named by the
/// assignment are written, grouped by core.
void write_partitioned_task_set(std::ostream& out, const PartitionedTaskSet& partitioned);

/// Writes to a file; returns false if the file cannot be opened.
[[nodiscard]] bool write_partitioned_task_set_file(const std::string& path,
                                                   const PartitionedTaskSet& partitioned);

/// Canonical single-line serialization of a task set, the basis of the
/// analysis server's content-hashed result cache (service/cache.hpp):
///
///   * task names are dropped -- no analysis in core/ reads them;
///   * tasks are sorted by their full parameter tuple, so two sets that
///     differ only in declaration order (or naming) serialize identically;
///   * fields appear in a fixed order (crit, C(LO), C(HI), D(LO), D(HI),
///     T(LO), T(HI)) separated by ',' with tasks separated by '|', and
///     infinities print as "inf" -- no whitespace, tabs or newlines ever;
///   * the empty set canonicalizes to the empty string.
///
/// Round-trip stable: canonical_task_set(parse(write(set))) ==
/// canonical_task_set(set) for every valid set (property-tested in
/// tests/support/taskset_io_test.cpp).
[[nodiscard]] std::string canonical_task_set(const TaskSet& set);

/// Canonical rendering of a floating-point knob (speeds, tolerances) for the
/// same cache key: the value is snapped onto the kCanonicalGrid lattice and
/// printed with just enough digits to identify the lattice point, so values
/// that differ only by rounding noise (well inside kSpeedTol) render
/// identically. Non-finite values render as "inf"/"-inf"/"nan".
[[nodiscard]] std::string canonical_double(double value);

}  // namespace rbs
