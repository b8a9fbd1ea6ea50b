// Dual-criticality sporadic task model (Section II of the paper).
//
// Each task has per-mode parameters {T(chi), D(chi), C(chi)} subject to the
// constraints of Eqs. (1)-(3):
//   HI task:  T(HI) = T(LO),   D(LO) <= D(HI) = D,   C(HI) >= C(LO)
//   LO task:  T(HI) >= T(LO),  D(HI) >= D(LO) = D,   C(HI) =  C(LO)
// A LO task that is *terminated* in HI mode has T(HI) = D(HI) = +inf (Eq. 3).
// Deadlines are constrained: D(chi) <= T(chi) in every mode.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "support/status.hpp"

namespace rbs {

/// The triple {T, D, C} of one task in one operation mode.
struct ModeParams {
  Ticks period = 0;    ///< T(chi): minimum inter-arrival time
  Ticks deadline = 0;  ///< D(chi): relative deadline
  Ticks wcet = 0;      ///< C(chi): worst-case execution time at nominal speed
};

/// One sporadic dual-criticality task.
class McTask {
 public:
  /// HI-criticality task: T(HI)=T(LO)=period, D(HI)=deadline, D(LO)=lo_deadline.
  static McTask hi(std::string name, Ticks c_lo, Ticks c_hi, Ticks lo_deadline, Ticks deadline,
                   Ticks period);

  /// LO-criticality task with degraded HI-mode service {hi_deadline, hi_period}.
  static McTask lo(std::string name, Ticks c, Ticks deadline, Ticks period, Ticks hi_deadline,
                   Ticks hi_period);

  /// LO-criticality task that keeps its original service in HI mode.
  static McTask lo(std::string name, Ticks c, Ticks deadline, Ticks period);

  /// LO-criticality task that is terminated in HI mode (Eq. 3).
  static McTask lo_terminated(std::string name, Ticks c, Ticks deadline, Ticks period);

  const std::string& name() const { return name_; }
  Criticality criticality() const { return criticality_; }
  bool is_hi() const { return criticality_ == Criticality::HI; }

  const ModeParams& params(Mode mode) const { return mode == Mode::LO ? lo_ : hi_; }
  Ticks period(Mode mode) const { return params(mode).period; }
  Ticks deadline(Mode mode) const { return params(mode).deadline; }
  Ticks wcet(Mode mode) const { return params(mode).wcet; }

  /// True if this LO task is dropped entirely in HI mode.
  bool dropped_in_hi() const { return is_inf(hi_.period); }

  /// C(chi)/T(chi); zero in HI mode for a dropped task.
  double utilization(Mode mode) const;

  /// D(HI) - D(LO) >= 0: the deadline extension a carry-over job gains at the
  /// mode switch (denoted g in our DBF code; appears in Eq. 5).
  Ticks deadline_extension() const { return hi_.deadline - lo_.deadline; }

  /// Returns all model-constraint violations (empty means valid).
  std::vector<std::string> validate() const;

  /// Mutators used by the tuning code (deadline shortening / degradation).
  /// They keep the object consistent but do not re-validate; call validate().
  void set_lo_deadline(Ticks d) { lo_.deadline = d; }
  void set_hi_service(Ticks hi_deadline, Ticks hi_period);

 private:
  McTask() = default;

  std::string name_;
  Criticality criticality_ = Criticality::LO;
  ModeParams lo_;
  ModeParams hi_;
};

/// An immutable-by-convention collection of tasks with aggregate helpers.
class TaskSet {
 public:
  TaskSet() = default;

  /// Throws std::invalid_argument if any task violates the model constraints.
  explicit TaskSet(std::vector<McTask> tasks);

  /// Non-throwing factory: every model-constraint violation is reported as a
  /// recoverable Status error instead of an exception. Prefer this on any
  /// path fed by external input (taskset_io, CLI, generators).
  [[nodiscard]] static Expected<TaskSet> create(std::vector<McTask> tasks);

  const std::vector<McTask>& tasks() const { return tasks_; }
  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  const McTask& operator[](std::size_t i) const { return tasks_[i]; }

  auto begin() const { return tasks_.begin(); }
  auto end() const { return tasks_.end(); }

  /// Sum of C(mode)/T(mode) over tasks of criticality `chi`.
  /// Dropped tasks contribute zero in HI mode.
  double utilization(Criticality chi, Mode mode) const;

  /// Sum over *all* tasks of C(mode)/T(mode).
  double total_utilization(Mode mode) const;

  /// Sum of C(HI) over all tasks not dropped in HI mode; this is the constant
  /// K with DBF_HI(tau_i, D) <= U_i(HI) * D + K used to bound the speedup
  /// search (Section III, "computation efficiency").
  Ticks total_hi_wcet() const;

 private:
  std::vector<McTask> tasks_;
};

/// Sum over `tasks` of C(mode)/T(mode), summed as TaskSet::total_utilization
/// sums it: the LO tasks, then the HI tasks, each in order. Every digest
/// carries these bits.
[[nodiscard]] double total_utilization(std::span<const McTask> tasks, Mode mode);

/// Sum of C(HI) over the tasks not dropped in HI mode (TaskSet::total_hi_wcet).
[[nodiscard]] Ticks total_hi_wcet(std::span<const McTask> tasks);

/// Formats a task as a one-line human-readable string (for traces and docs).
std::string describe(const McTask& task);

}  // namespace rbs
