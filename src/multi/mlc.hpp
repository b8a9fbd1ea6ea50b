// Multi-level (K >= 2 criticality levels) extension.
//
// The paper treats dual-criticality systems; industrial standards define
// more levels (DO-178B A-E, IEC 61508 SIL 1-4). This module generalises the
// analysis by *per-transition projection*:
//
// System modes 0..K-1; the system starts in mode 0 and moves from mode k-1
// to mode k when a job of a task with criticality >= k executes beyond its
// level-(k-1) WCET. Each task carries per-mode parameters {T^m, D^m, C^m}:
// while m <= crit(i) the task runs full service with progressively more
// pessimistic WCETs and progressively *later* virtual deadlines
// (D^0 < D^1 < ... are the overrun preparations); for m > crit(i) the task
// is degraded (stretched T/D, frozen C) or terminated (infinite T/D).
//
// Soundness by relativisation: the mode-(k-1) schedulability test guarantees
// every job meets its level-(k-1) virtual deadline while the system is in
// mode k-1 -- which is exactly the premise Lemma 1's carry-over bound needs
// for the switch into mode k. Hence transition k-1 -> k is *precisely* a
// dual-criticality instance with "LO" = level-(k-1) parameters and "HI" =
// level-k parameters, and the existing Theorems 2/4 apply verbatim to the
// projected set. Mode-0 schedulability is the LO-mode test of the first
// projection. At the first idle instant the system resets to mode 0 and
// nominal speed (the paper's protocol), so each transition's Delta_R bounds
// its own episode.
#pragma once

#include <string>
#include <vector>

#include "core/task.hpp"

namespace rbs {

/// One task of a K-level system. `levels[m]` holds {T^m, D^m, C^m}.
struct MlcTask {
  std::string name;
  int criticality = 0;  ///< in [0, K-1]
  std::vector<ModeParams> levels;
};

/// A validated K-level system.
class MlcSystem {
 public:
  /// Throws std::invalid_argument on any model violation (see file comment).
  MlcSystem(int num_levels, std::vector<MlcTask> tasks);

  int num_levels() const { return num_levels_; }
  const std::vector<MlcTask>& tasks() const { return tasks_; }

  /// The dual-criticality projection of transition k-1 -> k (k in [1, K-1]):
  /// tasks with criticality >= k become HI tasks {C^{k-1}, C^k, D^{k-1},
  /// D^k, T}; the rest become LO tasks with their level-(k-1) service as
  /// "LO" and level-k service as "HI" (termination for infinite T^k).
  TaskSet projection(int k) const;

 private:
  int num_levels_ = 0;
  std::vector<MlcTask> tasks_;
};

/// Complete offline analysis of a K-level system.
struct MlcAnalysis {
  bool mode0_schedulable = false;
  /// s_min of each transition projection, index k-1 for transition k (size K-1).
  std::vector<double> level_speedups;
  /// Delta_R of each transition at the corresponding `speeds` entry.
  std::vector<double> reset_times;
  /// Overall verdict: mode 0 feasible and every transition's projection is
  /// HI-schedulable (the facade's verdict) at the speed budgeted for it.
  bool schedulable = false;
};

/// Analyses the system under per-transition speed budgets `speeds`
/// (size K-1; speeds[k-1] is the processor speed in mode k).
MlcAnalysis analyze_mlc(const MlcSystem& system, const std::vector<double>& speeds);

}  // namespace rbs
