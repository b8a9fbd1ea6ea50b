// Event-driven simulator kernel (the production engine behind
// sim/simulate.hpp).
//
// Replaces the legacy stepping engine (now the test oracle in
// tests/sim/reference_kernel.hpp) with a discrete-event design: a
// deterministic binary-heap calendar of typed wake-ups (sim/event_queue.hpp)
// plus structure-of-arrays job/task state, so one dispatched instant costs
// O(changes) instead of the stepping engine's O(tasks + jobs) rescans. The kernel is *equivalence-preserving*: it visits
// exactly the instants the stepping engine visits, performs the same state
// transitions in the same fixed order, and consumes the RNG stream in the
// same order, so the resulting SimMetrics -- and the full trace -- are
// bit-identical (enforced by tests/sim/differential_test.cpp). See
// docs/simulator.md for the event taxonomy, the tie-break rule and the
// determinism guarantees.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/task.hpp"
#include "gen/rng.hpp"
#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "support/rt_annotations.hpp"
#include "support/status.hpp"

namespace rbs::sim {

/// Resource caps on one simulation run, mirroring core/analysis's
/// AnalysisLimits. The defaults are effectively unlimited; a campaign that
/// wants bounded per-item latency lowers them and reads the termination
/// verdict instead of waiting on an adversarial configuration.
struct SimLimits {
  /// Cap on dispatched calendar instants (loop iterations that process
  /// events). Exceeding it ends the run early with kEventBudget.
  std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max();
  /// Cap on released jobs. Exceeding it ends the run early with kJobBudget.
  std::uint64_t max_jobs = std::numeric_limits<std::uint64_t>::max();
};

/// Rejects non-positive caps (a zero budget could never dispatch the first
/// instant and would report an empty run as if the system were idle).
[[nodiscard]] Status validate_limits(const SimLimits& limits);

/// Why the run ended.
enum class SimTermination : std::uint8_t {
  kHorizon = 0,   ///< simulated the full configured horizon
  kEventBudget,   ///< SimLimits::max_events exhausted (metrics are a prefix)
  kJobBudget,     ///< SimLimits::max_jobs exhausted (metrics are a prefix)
  kCoreFault,     ///< the core fail-stopped (FaultPlan::core_fail_at); the
                  ///< metrics are the honest prefix up to the failure instant
};

[[nodiscard]] std::string to_string(SimTermination termination);

/// Work counters of one run, in the spirit of AnalysisReport's breakpoint
/// counters: how much the calendar actually did, for perf forensics and the
/// event-queue property tests.
struct SimCounters {
  std::uint64_t events_processed = 0;      ///< dispatched calendar instants
  std::uint64_t calendar_pushes = 0;
  std::uint64_t calendar_pops = 0;
  std::uint64_t stale_events_dropped = 0;  ///< lazily invalidated entries
  std::size_t peak_calendar_size = 0;
  std::uint64_t edf_rescans = 0;           ///< full EDF argmin recomputations
  std::uint64_t deadline_rescans = 0;      ///< earliest-deadline recomputations
};

/// Everything one simulation run produced: the run's SimMetrics plus the
/// facade's termination/exactness verdicts and work counters.
struct SimReport {
  SimMetrics metrics;
  /// True iff the run covered the full configured horizon. When false,
  /// `metrics` describes the honest prefix up to `metrics.horizon` (set to
  /// the instant the budget ran out) and `termination` says which cap bit.
  bool completed = true;
  SimTermination termination = SimTermination::kHorizon;
  SimCounters counters;

  /// Convenience mirror of `completed`, named like the analysis facade's
  /// exactness flags: the metrics are exact for the *requested* horizon.
  [[nodiscard]] bool exact() const { return completed; }
};

/// The reusable event-driven engine. One instance owns the calendar, the
/// job pool and every scratch buffer, so running many configurations through
/// the same kernel (a campaign) performs no steady-state allocation. Not
/// thread-safe; give each worker thread its own kernel.
///
/// Inputs must be pre-validated (validate_config / validate_limits); the
/// facade in sim/simulate.hpp does this. run() on an invalid configuration
/// is undefined (NaNs propagate).
class EventKernel {
 public:
  /// Simulates `set` under `config` within `limits`. Hot: everything
  /// reachable from here is rt-alloc/rt-block clean apart from amortized
  /// growth of the long-lived pool/trace/calendar vectors.
  [[nodiscard]] SimReport run(const TaskSet& set, const SimConfig& config,
                              const SimLimits& limits) RBS_HOT_PATH;

 private:
  // Job-pool flag bits (job_flags_).
  static constexpr std::uint8_t kFlagOverruns = 1;  ///< demand > C(LO), per the demand model
  static constexpr std::uint8_t kFlagMissed = 2;    ///< deadline miss recorded
  static constexpr std::uint8_t kFlagCrossed = 4;   ///< executed >= C(LO) - eps
  static constexpr std::uint8_t kFlagEligible = 8;  ///< HI task with demand > C(LO) + eps
  static constexpr std::uint8_t kFlagFinished = 16; ///< demand exhausted, completion pending

  static constexpr std::uint64_t kNoJob = std::numeric_limits<std::uint64_t>::max();

  void init();
  void sync(double now);
  [[nodiscard]] bool event_valid(const Event& e) const;
  [[nodiscard]] double next_instant(double now);
  void advance(double now, double until);
  void process_instant(double now);

  [[nodiscard]] double detection_time(double t_exhaust) const;
  [[nodiscard]] double next_poll_after(double now) const;
  [[nodiscard]] bool at_poll_instant(double now) const;

  void recompute_running();
  void recompute_deadline_min();
  [[nodiscard]] bool beats(std::uint32_t a, std::uint32_t b) const;

  void complete(std::uint32_t slot, double now);
  void abandon(std::uint32_t slot);
  void remove_from_active(std::uint32_t slot);
  void release(std::uint32_t task, double now);
  [[nodiscard]] double desired_release_base(std::uint32_t task) const;
  void push_release_event(std::uint32_t task);
  void re_arm_all_releases();
  void recompute_release_min();
  double sample_demand(std::uint32_t task, double now, bool& overruns);
  void switch_to_hi(double now);
  void reset(double now);
  void budget_fallback(double now);
  void core_fail(double now);
  void finalize();

  void record_event(double time, TraceEvent::Kind kind);
  void record_event(double time, TraceEvent::Kind kind, std::uint32_t slot);

  [[nodiscard]] bool scripted() const { return !cfg_->scripted_arrivals.empty(); }

  // ---- per-run context (borrowed for the duration of run()) --------------
  const TaskSet* set_ = nullptr;
  const SimConfig* cfg_ = nullptr;
  bool trace_on_ = false;  ///< cfg_->record_trace, cached off the hot path
  bool polled_ = false;    ///< cfg_->faults.detection_period > 0, cached
  Rng rng_{1};

  // ---- per-task caches and release state (structure of arrays) -----------
  std::vector<double> task_t_lo_, task_t_hi_;  ///< periods as double
  std::vector<double> task_c_lo_, task_c_hi_;  ///< WCETs as double
  std::vector<double> task_d_lo_, task_d_hi_;  ///< deadlines as double
  std::vector<std::uint8_t> task_is_hi_, task_dropped_, task_t_hi_inf_;
  std::vector<double> next_lo_, next_hi_;      ///< earliest next release bases
  std::vector<std::size_t> script_pos_;
  /// The release lane: armed_time_[i] is task i's next release instant
  /// under the current mode (-1 while suppressed or exhausted). The n
  /// recurring release sources live in this flat indexed lane with a cached
  /// argmin instead of the binary heap: a mode change just overwrites the
  /// lane (no invalidate-and-repush churn), and the due sweep yields tasks
  /// in index order, which is exactly the dispatch tie-break. The heap
  /// carries only the aperiodic wake-ups (polls, episode timers).
  std::vector<double> armed_time_;
  double release_min_ = kInfTime;  ///< min over armed_time_ (valid entries)
  bool release_dirty_ = false;     ///< release_min_ needs a rescan

  // ---- job pool (structure of arrays, slot-indexed, free-listed) ---------
  std::vector<std::uint32_t> job_task_;
  std::vector<std::uint64_t> job_id_;
  std::vector<double> job_release_, job_deadline_, job_demand_, job_executed_;
  std::vector<std::uint8_t> job_flags_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> active_;  ///< live slots in job-id (release) order

  // ---- calendar + reusable scratch ---------------------------------------
  EventQueue queue_;
  std::vector<std::uint32_t> pending_finished_;  ///< slots awaiting completion
  std::vector<std::uint32_t> due_tasks_;         ///< releases due this instant
  std::vector<std::uint32_t> abandon_scratch_;

  /// Sets speed_ and caches its reciprocal when that reciprocal is exact
  /// (power-of-two speed), letting the dispatch path multiply instead of
  /// divide with bit-identical results.
  void set_speed(double s);

  // ---- protocol state -----------------------------------------------------
  Mode mode_ = Mode::LO;
  double speed_ = 1.0;
  double inv_speed_ = 1.0;  ///< exact 1/speed_ for power-of-two speeds, else 0
  double hi_since_ = 0.0;
  double last_switch_ = -1.0;
  bool fallback_active_ = false;
  FaultSpec cur_fault_;
  double episode_latency_ = 0.0;
  double episode_target_ = 1.0;
  bool boost_pending_ = false;
  bool throttle_pending_ = false;
  std::size_t episode_index_ = 0;
  std::uint64_t prev_job_ = kNoJob;
  std::uint64_t next_job_id_ = 0;
  bool fail_armed_ = false;   ///< a core fault is scheduled and pending
  bool core_failed_ = false;  ///< the fault fired; the run ends this instant
  double fail_at_ = 0.0;      ///< FaultPlan::core_fail_at, cached

  // ---- derived scheduling state ------------------------------------------
  // Both argmins carry a cached runner-up so the common invalidation -- the
  // running (EDF-best, min-deadline) job finishing -- promotes in O(1) at
  // complete() instead of rescanning the active set at the next sync().
  std::int32_t running_slot_ = -1;
  std::int32_t running2_ = -1;  ///< EDF runner-up: -1 none, -2 unknown
  bool edf_dirty_ = false;
  double deadline_min_ = kInfTime;
  double deadline_min2_ = kInfTime;  ///< runner-up deadline, NaN = unknown
  bool deadline_dirty_ = false;
  std::size_t crossed_count_ = 0;    ///< jobs past their C(LO) budget
  std::size_t unfinished_count_ = 0;
  bool poll_armed_ = false;
  std::uint64_t poll_epoch_ = 0;

  SimCounters counters_;
  SimMetrics result_;
};

}  // namespace rbs::sim
