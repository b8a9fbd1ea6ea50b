// LO-mode EDF schedulability: the classic processor-demand criterion.
//
// In LO mode all tasks run with their LO-mode parameters on a unit-speed
// processor, and the system is schedulable iff for every interval length
// Delta > 0:  sum_i DBF_LO(tau_i, Delta) <= Delta   [5].
//
// The test is pseudo-polynomial: demand is checked only at the step points
// of the total demand function inside a finite window, the smaller of the
// utilization-based bound L_a and the LO-mode hyperperiod H (which bounds
// the synchronous busy period whenever U <= 1). LoDemandTable walks those
// step points forward and compares demand with Delta in integer ticks; it
// is the library's only LO-mode test, and lo_mode_test runs it once.
// tests/core/reference_qpa.hpp keeps QPA, the backward iteration of Zhang &
// Burns, as the oracle it is checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/analysis.hpp"
#include "core/breakpoints.hpp"
#include "core/closed_form.hpp"
#include "core/task.hpp"

namespace rbs {

struct EdfTestResult {
  bool schedulable = false;
  /// True if the test ran to its exact stopping bound. When false (breakpoint
  /// budget exhausted), `schedulable` is conservatively false.
  bool conclusive = true;
  /// First interval length at which demand exceeded supply (if any).
  Ticks violation_delta = 0;
  std::size_t breakpoints_visited = 0;
};

/// The interval lengths the LO-mode processor-demand test must check
/// (docs/ANALYSIS.md §1).
struct LoWindow {
  /// Set when the utilization decides alone: false when U > 1 (no single
  /// witness interval), true for implicit deadlines with U <= 1.
  std::optional<bool> verdict;
  /// Otherwise every step point Delta <= last: min(L_a, H) when U is
  /// definitely below 1, with L_a rounded up past the exact bound; H when U
  /// equals 1 (compared exactly at the hyperperiod); and kInfTicks - 1,
  /// bounded only by the breakpoint budget, when U equals 1 but H or the
  /// demand over H overflows.
  Ticks last = 0;
};

/// The LO-mode demand of one task set, laid out to be tested more than once:
/// each task's window terms in set order, U and the LO-mode hyperperiod H,
/// and the DBF_LO stops in ring order (grouped by period, rising deadlines
/// within a period), which re-arm one breakpoint merger at every test.
/// lo_mode_test builds one and tests it once. min_x_for_lo builds one per
/// skeleton and, at each bisection probe, only moves the HI tasks' deadlines,
/// so a probe builds no task set, merger or vector (docs/ANALYSIS.md §1).
/// The analysis (core/analysis_storage.hpp) keeps one in caller-owned
/// storage and refills it for each call with assign().
class LoDemandTable {
 public:
  /// An empty table; assign() fills it.
  LoDemandTable() = default;

  explicit LoDemandTable(const TaskSet& set);

  /// Makes this the table of `tasks`, in the storage of the table before:
  /// no allocation once the table has held as many tasks. Everything the
  /// previous tasks left is dropped, the cached hyperperiod fold and its cap
  /// included. `tasks` are those of a valid set (TaskSet::create's checks).
  void assign(std::span<const McTask> tasks);

  /// The table of `set.materialize(1, y)` for any y (HI-mode parameters do
  /// not enter LO mode), built from the skeleton without the task set.
  explicit LoDemandTable(const ImplicitSet& set);

  /// Moves every HI task's D(LO) to prepared_lo_deadline(x, T, C(LO))
  /// (core/closed_form.hpp), where ImplicitSet::materialize(x, y) puts it.
  /// For a set in that normal form the table then stands for
  /// materialize(x, y) in LO mode, and its stops stay in ring order; out of
  /// that form a period's stops may fall out of order, which splits their
  /// ring in the merger but leaves every result exact.
  void prepare_hi_deadlines(double x) RBS_HOT_PATH;

  /// The window of the test, from U and the deadline slack summed as a task
  /// set sums them.
  [[nodiscard]] LoWindow window() const RBS_HOT_PATH;

  /// The processor-demand test at the current deadlines, inconclusive past
  /// `max_breakpoints` step points.
  [[nodiscard]] EdfTestResult test(std::size_t max_breakpoints = kBreakpointBudget)
      RBS_HOT_PATH;

  /// U, summed as TaskSet::total_utilization(Mode::LO) sums it, bit for bit.
  [[nodiscard]] double utilization() const { return utilization_; }

 private:
  struct Task {
    TaggedSeq stop;  ///< DBF_LO's stop: D(LO) + k*T(LO), each adding C(LO)
    double utilization = 0.0;  ///< C/T, rounded as McTask::utilization rounds it
    bool hi = false;
  };

  /// Puts the stops in ring order and sums U; the last step of assign()
  /// and of the skeleton constructor. Ties within a period go HI task
  /// first, then by C(LO), so for a set in the normal form every prepared
  /// deadline keeps that order.
  void arm();

  /// Sums the slack U_i * (T_i - D_i) in set order, and notes whether every
  /// deadline is implicit.
  void sum_slack();

  /// H when it is at most `cap`, else nullopt. The fold stops once it
  /// passes the cap, and its result is kept: a later call folds again only
  /// for a larger cap than a failed fold had.
  [[nodiscard]] std::optional<Ticks> hyperperiod(Ticks cap) const;

  /// The LO-mode demand of one hyperperiod H, or nullopt on overflow.
  [[nodiscard]] std::optional<Ticks> hyperperiod_demand(Ticks h) const;

  std::vector<Task> tasks_;                ///< in set order
  std::vector<std::uint32_t> ring_order_;  ///< tasks_ indices by period, then start
  std::vector<TaggedSeq> stops_;           ///< DBF_LO stops in ring order
  double utilization_ = 0.0;  ///< U, summed as TaskSet::total_utilization sums it
  double slack_ = 0.0;
  bool implicit_ = true;
  mutable std::optional<Ticks> hyperperiod_;
  mutable Ticks hyperperiod_cap_ = 0;  ///< the cap of the last fold, 0 before one
  TaggedBreakpointMerger merger_;
};

/// Full processor-demand test of the LO-mode parameters.
[[nodiscard]] EdfTestResult lo_mode_test(const TaskSet& set,
                                         std::size_t max_breakpoints = kBreakpointBudget);

/// Convenience wrapper returning only the verdict.
[[nodiscard]] bool lo_mode_schedulable(const TaskSet& set);

}  // namespace rbs
