// Event-driven kernel implementation. Equivalence with the stepping oracle
// (tests/sim/reference_kernel.cpp) is load-bearing and bit-exact; the
// invariants that make it hold:
//
//  * The kernel visits EXACTLY the instants the stepping engine visits. An
//    extra intermediate instant would split an advance() into two segments
//    and re-associate the floating-point sums (executed, busy_time), so
//    stale calendar entries are dropped at peek time and never become
//    instants, and state-dependent wake-ups whose times drift by ulps as
//    `now` moves (job completion, budget exhaustion, the poll candidate's
//    window) are re-derived from the same expressions the oracle evaluates
//    instead of being cached in the calendar.
//  * Each processed instant runs the oracle's fixed step order: completions
//    (in job-id order), idle-instant reset, boost engage, throttle, turbo
//    fallback, overrun trigger, releases (in task order), deadline misses
//    (in job-id order).
//  * RNG draw order is preserved: initial offsets in task order at init;
//    one jitter draw then one demand draw per release, in release order;
//    fault draws from the dedicated stream at each mode switch.
#include "sim/event_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "sim/job.hpp"
#include "support/tolerance.hpp"

namespace rbs::sim {

namespace {

// Absolute comparison slacks from the project tolerance policy
// (support/tolerance.hpp), identical to the reference kernel's: event times
// and executed work share kTimeTol.
constexpr double kEpsTime = kTimeTol.absolute;
constexpr double kEpsWork = kTimeTol.absolute;

// Runner-up cache sentinels. A NaN runner-up deadline compares false against
// everything, so the incremental updates naturally leave it unknown until a
// rescan (or a release that demotes the exact minimum) heals it.
constexpr std::int32_t kUnknownSlot = -2;
const double kUnknownTime = std::numeric_limits<double>::quiet_NaN();

}  // namespace

Status validate_limits(const SimLimits& limits) {
  if (limits.max_events == 0) return Status::error("limits: max_events must be > 0");
  if (limits.max_jobs == 0) return Status::error("limits: max_jobs must be > 0");
  return Status::ok();
}

std::string to_string(SimTermination termination) {
  switch (termination) {
    case SimTermination::kHorizon: return "horizon";
    case SimTermination::kEventBudget: return "event-budget";
    case SimTermination::kJobBudget: return "job-budget";
    case SimTermination::kCoreFault: return "core-fault";
  }
  return "?";
}

// Flattening the dispatch loop keeps `now`, the mode/speed state and the
// hot array base pointers in registers across the per-instant helpers; the
// helpers are single-caller, so there is no code-size downside.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((flatten))
#endif
SimReport EventKernel::run(const TaskSet& set, const SimConfig& config, const SimLimits& limits) {
  set_ = &set;
  cfg_ = &config;
  init();

  const double horizon = config.horizon;
  double now = 0.0;
  SimTermination termination = SimTermination::kHorizon;

  while (now < horizon) {
    sync(now);
    const double t_next = next_instant(now);
    advance(now, std::min(t_next, horizon));
    now = std::min(t_next, horizon);
    if (now >= horizon) break;
    process_instant(now);
    ++counters_.events_processed;
    if (core_failed_) [[unlikely]] {
      termination = SimTermination::kCoreFault;
      break;
    }
    if (counters_.events_processed >= limits.max_events) [[unlikely]] {
      termination = SimTermination::kEventBudget;
      break;
    }
    if (result_.jobs_released >= limits.max_jobs) [[unlikely]] {
      termination = SimTermination::kJobBudget;
      break;
    }
  }

  finalize();
  if (termination != SimTermination::kHorizon) result_.horizon = now;

  SimReport report;
  report.metrics = std::move(result_);
  report.completed = termination == SimTermination::kHorizon;
  report.termination = termination;
  counters_.calendar_pushes = queue_.pushes();
  counters_.calendar_pops = queue_.pops();
  counters_.peak_calendar_size = queue_.peak_size();
  report.counters = counters_;
  return report;
}

void EventKernel::init() {
  const std::size_t n = set_->size();
  const SimConfig& cfg = *cfg_;

  // Reset the result without dropping the task_stats allocation: the vector
  // is recycled across runs of a campaign, like every other buffer here.
  auto recycled_stats = std::move(result_.task_stats);
  result_ = SimMetrics{};
  result_.horizon = cfg.horizon;
  recycled_stats.assign(n, TaskStats{});
  result_.task_stats = std::move(recycled_stats);
  counters_ = SimCounters{};

  trace_on_ = cfg.record_trace;
  polled_ = cfg.faults.detection_period > 0.0;

  rng_ = Rng(cfg.seed);
  // Dedicated fault stream: fault draws must not perturb demand/jitter
  // draws, so fault-free and faulted runs share arrival processes.
  fault_rng_ = Rng(cfg.faults.random.seed != 0 ? cfg.faults.random.seed
                                               : cfg.seed ^ 0x9e3779b97f4a7c15ULL);

  // resize, not assign: every element is overwritten by the loop below, so
  // pre-filling would write each array twice per run.
  task_t_lo_.resize(n);
  task_t_hi_.resize(n);
  task_c_lo_.resize(n);
  task_c_hi_.resize(n);
  task_d_lo_.resize(n);
  task_d_hi_.resize(n);
  task_is_hi_.resize(n);
  task_dropped_.resize(n);
  task_t_hi_inf_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const McTask& task = (*set_)[i];
    task_t_lo_[i] = static_cast<double>(task.period(Mode::LO));
    task_t_hi_[i] = static_cast<double>(task.period(Mode::HI));
    task_t_hi_inf_[i] = is_inf(task.period(Mode::HI)) ? 1 : 0;
    task_c_lo_[i] = static_cast<double>(task.wcet(Mode::LO));
    task_c_hi_[i] = static_cast<double>(task.wcet(Mode::HI));
    task_d_lo_[i] = static_cast<double>(task.deadline(Mode::LO));
    task_d_hi_[i] = static_cast<double>(task.deadline(Mode::HI));
    task_is_hi_[i] = task.is_hi() ? 1 : 0;
    task_dropped_[i] = task.dropped_in_hi() ? 1 : 0;
  }

  next_lo_.resize(n);   // filled by the offset loop below
  next_hi_.resize(n);
  script_pos_.assign(n, 0);
  armed_time_.resize(n);  // filled by the push_release_event loop below
  release_min_ = kInfTime;
  release_dirty_ = false;
  // Initial offsets drawn in task order -- the first draws of the run, in
  // the same stream position as the reference kernel (drawn even when the
  // arrivals are scripted, to keep the stream aligned). A per-task start
  // time (SimConfig::start_times, e.g. a migrated-in task that only exists
  // after its source core failed) shifts the base before the offset.
  const bool has_starts = !cfg.start_times.empty();
  for (std::size_t i = 0; i < n; ++i) {
    double offset = 0.0;
    if (cfg.initial_offset_spread > 0.0)
      offset = rng_.uniform(0.0, cfg.initial_offset_spread * task_t_lo_[i]);
    const double start = has_starts ? cfg.start_times[i] : 0.0;
    next_lo_[i] = start + offset;
    next_hi_[i] = start + offset;
  }

  const std::size_t pool = 2 * n + 16;  // steady-state job population
  job_task_.clear();
  job_id_.clear();
  job_release_.clear();
  job_deadline_.clear();
  job_demand_.clear();
  job_executed_.clear();
  job_flags_.clear();
  job_task_.reserve(pool);
  job_id_.reserve(pool);
  job_release_.reserve(pool);
  job_deadline_.reserve(pool);
  job_demand_.reserve(pool);
  job_executed_.reserve(pool);
  job_flags_.reserve(pool);
  free_slots_.clear();
  free_slots_.reserve(pool);
  active_.clear();
  active_.reserve(pool);
  pending_finished_.clear();
  pending_finished_.reserve(pool);
  due_tasks_.clear();
  due_tasks_.reserve(n + 8);
  abandon_scratch_.clear();
  abandon_scratch_.reserve(pool);
  queue_.clear();
  queue_.reserve(n + 16);

  mode_ = Mode::LO;
  set_speed(cfg.lo_speed);
  hi_since_ = 0.0;
  last_switch_ = -1.0;
  fallback_active_ = false;
  cur_fault_ = FaultSpec{};
  episode_latency_ = 0.0;
  episode_target_ = cfg.hi_speed;
  boost_pending_ = false;
  throttle_pending_ = false;
  episode_index_ = 0;
  prev_job_ = kNoJob;
  next_job_id_ = 0;

  // Fail-stop core fault: a fixed calendar entry (never invalidated until it
  // fires). At or beyond the horizon it can never be dispatched, so it is
  // not armed at all.
  fail_at_ = cfg.faults.core_fail_at;
  fail_armed_ = fail_at_ > 0.0 && fail_at_ < cfg.horizon;
  core_failed_ = false;
  if (fail_armed_) queue_.push({fail_at_, EventKind::kCoreFault, 0, 0});

  running_slot_ = -1;
  running2_ = -1;
  edf_dirty_ = false;
  deadline_min_ = kInfTime;
  deadline_min2_ = kInfTime;
  deadline_dirty_ = false;
  crossed_count_ = 0;
  unfinished_count_ = 0;
  poll_armed_ = false;
  poll_epoch_ = 0;

  for (std::uint32_t i = 0; i < n; ++i) push_release_event(i);
}

// ---- budget-monitor polling (delayed overrun detection fault) ------------

void EventKernel::set_speed(double s) {
  speed_ = s;
  int exp = 0;
  // A power-of-two speed has an exactly representable reciprocal, so
  // `x * inv_speed_` is bit-identical to `x / speed_` (IEEE 754 exact
  // scaling); any other speed falls back to the division.
  // Exact classification, not a tolerance check: frexp of a power of two
  // yields exactly 0.5.
  inv_speed_ = std::frexp(s, &exp) == 0.5 ? 1.0 / s : 0.0;  // rbs-lint: allow(float-eq)
}

double EventKernel::detection_time(double t_exhaust) const {
  const double delta = cfg_->faults.detection_period;
  if (delta <= 0.0) return t_exhaust;
  const double k = std::max(0.0, std::ceil((t_exhaust - kEpsTime) / delta));
  return k * delta;
}

double EventKernel::next_poll_after(double now) const {
  const double delta = cfg_->faults.detection_period;
  return (std::floor((now + kEpsTime) / delta) + 1.0) * delta;
}

bool EventKernel::at_poll_instant(double now) const {
  const double delta = cfg_->faults.detection_period;
  if (delta <= 0.0) return true;
  const double r = std::fmod(now, delta);
  return r <= kEpsTime || delta - r <= kEpsTime;
}

// ---- calendar ------------------------------------------------------------

bool EventKernel::event_valid(const Event& e) const {
  switch (e.kind) {
    case EventKind::kBudgetPoll:
      return poll_armed_ && e.stamp == poll_epoch_;
    case EventKind::kBoostLatencyExpiry:
      return mode_ == Mode::HI && !fallback_active_ && boost_pending_ &&
             e.stamp == result_.mode_switches;
    case EventKind::kThrottleDown:
      return mode_ == Mode::HI && !fallback_active_ && throttle_pending_ &&
             e.stamp == result_.mode_switches;
    case EventKind::kTurboBudgetExpiry:
      return mode_ == Mode::HI && !fallback_active_ && e.stamp == result_.mode_switches;
    case EventKind::kCoreFault:
      return fail_armed_;
    default:
      return false;
  }
}

double EventKernel::desired_release_base(std::uint32_t task) const {
  if ((mode_ == Mode::HI && task_dropped_[task]) ||
      (fallback_active_ && !task_is_hi_[task]))
    return -1.0;  // suppressed: no release while this mode state holds
  double base;
  if (scripted()) {
    const auto& script = cfg_->scripted_arrivals[task];
    if (script_pos_[task] >= script.size()) return -1.0;
    base = script[script_pos_[task]].release;
  } else {
    base = mode_ == Mode::LO ? next_lo_[task] : next_hi_[task];
  }
  // A base at or beyond the horizon (or +inf) can never be dispatched: the
  // run ends when `now` reaches the horizon.
  return base < cfg_->horizon ? base : -1.0;
}

void EventKernel::push_release_event(std::uint32_t task) {
  armed_time_[task] = desired_release_base(task);
  release_dirty_ = true;
}

void EventKernel::re_arm_all_releases() {
  // Mode changed: every task's desired base may have moved (degraded LO
  // service, suppression of dropped/terminated tasks, deferred releases at
  // a reset). The lane is just overwritten -- no calendar churn.
  const std::size_t n = set_->size();
  for (std::uint32_t i = 0; i < n; ++i) armed_time_[i] = desired_release_base(i);
  release_dirty_ = true;
}

void EventKernel::recompute_release_min() {
  double m = kInfTime;
  const std::size_t n = armed_time_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double t = armed_time_[i];
    if (t >= 0.0 && t < m) m = t;
  }
  release_min_ = m;
  release_dirty_ = false;
}

// ---- scheduling ----------------------------------------------------------

bool EventKernel::beats(std::uint32_t a, std::uint32_t b) const {
  const double da = job_deadline_[a];
  const double db = job_deadline_[b];
  if (da != db) return da < db;
  if (job_task_[a] != job_task_[b]) return job_task_[a] < job_task_[b];
  return job_id_[a] < job_id_[b];
}

void EventKernel::recompute_running() {
  std::int32_t best = -1, second = -1;
  for (std::uint32_t slot : active_) {
    if (job_flags_[slot] & kFlagFinished) continue;
    if (best < 0 || beats(slot, static_cast<std::uint32_t>(best))) {
      second = best;
      best = static_cast<std::int32_t>(slot);
    } else if (second < 0 || beats(slot, static_cast<std::uint32_t>(second))) {
      second = static_cast<std::int32_t>(slot);
    }
  }
  running_slot_ = best;
  running2_ = second;
  edf_dirty_ = false;
  ++counters_.edf_rescans;
}

void EventKernel::recompute_deadline_min() {
  double m = kInfTime, m2 = kInfTime;
  for (std::uint32_t slot : active_) {
    const std::uint8_t f = job_flags_[slot];
    if ((f & kFlagFinished) || (f & kFlagMissed)) continue;
    const double d = job_deadline_[slot];
    if (d < m) {
      m2 = m;
      m = d;
    } else if (d < m2) {
      m2 = d;
    }
  }
  deadline_min_ = m;
  deadline_min2_ = m2;
  deadline_dirty_ = false;
  ++counters_.deadline_rescans;
}

void EventKernel::sync(double now) {
  if (edf_dirty_ && deadline_dirty_) {
    // The usual aftermath of a completion: both scalars died with the
    // finished job, so rebuild them in one pass over the active set.
    std::int32_t best = -1, second = -1;
    double m = kInfTime, m2 = kInfTime;
    for (std::uint32_t slot : active_) {
      const std::uint8_t f = job_flags_[slot];
      if (f & kFlagFinished) continue;
      if (best < 0 || beats(slot, static_cast<std::uint32_t>(best))) {
        second = best;
        best = static_cast<std::int32_t>(slot);
      } else if (second < 0 || beats(slot, static_cast<std::uint32_t>(second))) {
        second = static_cast<std::int32_t>(slot);
      }
      if (!(f & kFlagMissed)) {
        const double d = job_deadline_[slot];
        if (d < m) {
          m2 = m;
          m = d;
        } else if (d < m2) {
          m2 = d;
        }
      }
    }
    running_slot_ = best;
    running2_ = second;
    edf_dirty_ = false;
    deadline_min_ = m;
    deadline_min2_ = m2;
    deadline_dirty_ = false;
    ++counters_.edf_rescans;
    ++counters_.deadline_rescans;
  } else if (edf_dirty_) {
    recompute_running();
  } else if (deadline_dirty_) {
    recompute_deadline_min();
  }
  // Delayed detection: a job that crossed its budget between polls (and was
  // possibly preempted since) is noticed at the next poll instant.
  if (polled_ && !poll_armed_ && mode_ == Mode::LO && crossed_count_ > 0) [[unlikely]] {
    ++poll_epoch_;
    poll_armed_ = true;
    queue_.push({next_poll_after(now), EventKind::kBudgetPoll, 0, poll_epoch_});
  }
}

double EventKernel::next_instant(double now) {
  double t = cfg_->horizon;

  // Calendar minimum; stale tops are dropped here so an invalidated entry
  // never becomes a visited instant.
  while (!queue_.empty() && !event_valid(queue_.top())) {
    queue_.pop();
    ++counters_.stale_events_dropped;
  }
  if (!queue_.empty()) t = std::min(t, queue_.top().time);

  // Release-lane minimum (the n recurring sources live outside the heap).
  if (release_dirty_) [[unlikely]] recompute_release_min();
  t = std::min(t, release_min_);

  // Running-job wake-ups (completion, budget exhaustion) are re-derived each
  // dispatch from `now` -- the same expressions the stepping oracle
  // evaluates -- because their values drift by ulps as `now` advances and a
  // cached calendar copy would visit ulp-shifted instants.
  const std::int32_t rs = running_slot_;
  if (rs >= 0) {
    const auto slot = static_cast<std::uint32_t>(rs);
    const double rem = job_demand_[slot] - job_executed_[slot];
    t = std::min(t, now + (inv_speed_ != 0.0 ? rem * inv_speed_  // rbs-lint: allow(float-eq)
                                             : rem / speed_));
    const std::uint32_t i = job_task_[slot];
    if (mode_ == Mode::LO && (job_flags_[slot] & kFlagEligible) &&
        job_executed_[slot] < task_c_lo_[i]) {
      const double budget_rem = task_c_lo_[i] - job_executed_[slot];
      t = std::min(t, detection_time(
                          now + (inv_speed_ != 0.0  // rbs-lint: allow(float-eq)
                                     ? budget_rem * inv_speed_
                                     : budget_rem / speed_)));
    }
  }

  if (deadline_min_ < kInfTime && deadline_min_ > now + kEpsTime) t = std::min(t, deadline_min_);

  return std::max(t, now);
}

void EventKernel::advance(double now, double until) {
  const double dt = std::max(0.0, until - now);
  if (dt <= 0.0) return;
  const std::int32_t rs = running_slot_;
  if (rs >= 0) {
    const auto slot = static_cast<std::uint32_t>(rs);
    job_executed_[slot] += dt * speed_;
    result_.busy_time += dt;
    const std::uint64_t id = job_id_[slot];
    if (prev_job_ != kNoJob && prev_job_ != id) ++result_.preemptions;
    prev_job_ = id;
  }
  if (trace_on_) [[unlikely]] {
    TraceSegment seg;
    seg.start = now;
    seg.end = until;
    seg.task_index = rs >= 0 ? static_cast<int>(job_task_[static_cast<std::uint32_t>(rs)]) : -1;
    seg.job_id = rs >= 0 ? job_id_[static_cast<std::uint32_t>(rs)] : 0;
    seg.speed = speed_;
    seg.mode = mode_;
    auto& segments = result_.trace.segments;
    bool merged = false;
    if (!segments.empty()) {
      TraceSegment& last = segments.back();
      if (last.end == seg.start && last.task_index == seg.task_index &&
          last.job_id == seg.job_id && last.speed == seg.speed && last.mode == seg.mode) {
        last.end = seg.end;
        merged = true;
      }
    }
    if (!merged) segments.push_back(seg);
  }
  // Post-advance bookkeeping: only the running job's executed changed, so it
  // alone can newly finish or cross its C(LO) budget.
  if (rs >= 0) {
    const auto slot = static_cast<std::uint32_t>(rs);
    std::uint8_t& flags = job_flags_[slot];
    // Whether this advance finishes the running job is close to a coin flip
    // per instant, so the bookkeeping is written branch-free: unconditional
    // flag/counter arithmetic instead of a mispredict-prone branch.
    const std::uint8_t f = flags;
    const bool fin =
        !(f & kFlagFinished) & (job_executed_[slot] >= job_demand_[slot] - kEpsWork);
    flags = static_cast<std::uint8_t>(f | (fin ? kFlagFinished : 0));
    pending_finished_.push_back(slot);
    pending_finished_.resize(pending_finished_.size() - !fin);
    unfinished_count_ -= fin;
    edf_dirty_ = edf_dirty_ | fin;
    const bool was_min =
        fin & !(f & kFlagMissed) & (job_deadline_[slot] <= deadline_min_);
    deadline_dirty_ = deadline_dirty_ | was_min;
    // Defensive: a finishing non-min job could only have held the runner-up
    // deadline slot, never the minimum.
    if (fin && !was_min && !(f & kFlagMissed) &&
        job_deadline_[slot] <= deadline_min2_)
      deadline_min2_ = kUnknownTime;
    const std::uint32_t i = job_task_[slot];
    const bool cross = ((f & (kFlagEligible | kFlagCrossed)) == kFlagEligible) &
                       (job_executed_[slot] >= task_c_lo_[i] - kEpsWork);
    flags = static_cast<std::uint8_t>(flags | (cross ? kFlagCrossed : 0));
    crossed_count_ += cross;
  }
}

// ---- instant processing (fixed order: completions & reset, episode
// timers, overrun trigger, releases, deadline checks) ----------------------

void EventKernel::process_instant(double now) {
  // 0. Fail-stop core fault: destroys every in-flight job and ends the run
  // at this instant. Dispatched before everything else -- a completion,
  // release or deadline check at the same instant would have happened on the
  // failed core and so never happens at all.
  if (fail_armed_ && now >= fail_at_ - kEpsTime) [[unlikely]] {
    core_fail(now);
    return;
  }

  // 1. Completions, in job-id (release) order. Usually one entry (the job
  // that just ran); released-already-finished jobs from the previous
  // instant join it, so sort by id to match the oracle's pool-order sweep.
  if (!pending_finished_.empty()) {
    for (std::size_t k = 1; k < pending_finished_.size(); ++k) {
      const std::uint32_t s = pending_finished_[k];
      std::size_t j = k;
      while (j > 0 && job_id_[pending_finished_[j - 1]] > job_id_[s]) {
        pending_finished_[j] = pending_finished_[j - 1];
        --j;
      }
      pending_finished_[j] = s;
    }
    for (std::uint32_t slot : pending_finished_) complete(slot, now);
    pending_finished_.clear();
  }

  // Steps 2-2b only apply inside a HI episode; one gate covers all four so
  // the LO-mode common case pays a single predicted branch.
  if (mode_ == Mode::HI) {
    // 2. Idle instant in HI mode: reset to LO mode and nominal speed.
    if (unfinished_count_ == 0) reset(now);

    if (mode_ == Mode::HI && !fallback_active_) {  // (2) may have reset to LO
      // 2a. DVFS transition complete: the (possibly faulted) boost engages
      // at the episode's target speed -- hi_speed, or the partial-boost s'.
      if (boost_pending_ && now >= hi_since_ + episode_latency_ - kEpsTime) {
        set_speed(episode_target_);
        boost_pending_ = false;
      }

      // 2a'. Injected throttle-down: the boost collapses mid-episode and
      // stays collapsed until the idle-instant reset.
      if (throttle_pending_ && now >= hi_since_ + cur_fault_.throttle_after - kEpsTime) {
        throttle_pending_ = false;
        boost_pending_ = false;
        set_speed(cur_fault_.throttle_speed > 0.0 ? cur_fault_.throttle_speed : cfg_->lo_speed);
        ++result_.throttle_downs;
        record_event(now, TraceEvent::Kind::kThrottleDown);
      }

      // 2b. Turbo budget exhausted: stop overclocking, terminate LO tasks.
      if (cfg_->max_boost_duration > 0.0 &&
          now >= hi_since_ + cfg_->max_boost_duration - kEpsTime)
        budget_fallback(now);
    }
  }

  // 3. Overrun trigger: a HI job reached its C(LO) budget unfinished. With
  // a polled budget monitor (delayed-detection fault) the check only fires
  // at poll instants k * delta. The crossed-job count makes the common case
  // (nothing crossed) O(1).
  if (mode_ == Mode::LO && crossed_count_ > 0 && at_poll_instant(now)) {
    for (std::uint32_t slot : active_) {
      const std::uint8_t f = job_flags_[slot];
      if (f & kFlagFinished) continue;
      if ((f & (kFlagEligible | kFlagCrossed)) != (kFlagEligible | kFlagCrossed)) continue;
      record_event(now, TraceEvent::Kind::kOverrunTrigger, slot);
      switch_to_hi(now);
      break;
    }
  }

  // 4. Drain the calendar, then release due tasks in ascending task order
  // (the oracle's scan order). Draining and sweeping after step 3 lets a
  // mode switch re-arm the release lane -- including overdue deferred
  // releases -- before anything fires. Snapshot-then-release keeps "one
  // release per task per instant": a base re-armed by release() (e.g. a
  // scripted arrival at the same time) is not in the snapshot and waits for
  // the next dispatch, exactly like the oracle's revisit of the same
  // instant.
  while (!queue_.empty() && queue_.top().time <= now + kEpsTime) {
    const Event e = queue_.top();
    queue_.pop();
    if (!event_valid(e)) {
      ++counters_.stale_events_dropped;
      continue;
    }
    if (e.kind == EventKind::kBudgetPoll) poll_armed_ = false;
    // Episode-timer wake-ups: the predicate steps (2a/2a'/2b) already
    // applied their effect this instant; the entry is just consumed.
  }
  if (release_dirty_) recompute_release_min();
  if (release_min_ <= now + kEpsTime) {
    // Fused sweep: collect the due tasks and rebuild the lane argmin over the
    // kept entries in the same pass. release() then folds each re-armed time
    // into release_min_ incrementally, so no separate rescan is needed.
    due_tasks_.clear();
    double keep_min = kInfTime;
    const std::size_t n = armed_time_.size();
    for (std::uint32_t i = 0; i < n; ++i) {
      const double t = armed_time_[i];
      if (t < 0.0) continue;
      if (t <= now + kEpsTime) {
        armed_time_[i] = -1.0;  // consumed; release() re-arms
        due_tasks_.push_back(i);
      } else if (t < keep_min) {
        keep_min = t;
      }
    }
    release_min_ = keep_min;
    release_dirty_ = false;
    for (std::uint32_t i : due_tasks_) release(i, now);
  }

  // 5. Deadline misses, in job-id order. The earliest-deadline scalar makes
  // the common case (no deadline due) O(1).
  if (deadline_dirty_) recompute_deadline_min();
  if (deadline_min_ <= now + kEpsTime) {
    for (std::uint32_t slot : active_) {
      std::uint8_t& f = job_flags_[slot];
      if ((f & kFlagFinished) || (f & kFlagMissed)) continue;
      const double dl = job_deadline_[slot];
      if (dl < kInfTime && dl <= now + kEpsTime) {
        f |= kFlagMissed;
        result_.misses.push_back({job_task_[slot], job_id_[slot], dl, mode_});
        ++result_.task_stats[job_task_[slot]].misses;
        record_event(now, TraceEvent::Kind::kDeadlineMiss, slot);
      }
    }
    deadline_dirty_ = true;
    deadline_min2_ = kUnknownTime;  // missed jobs left the deadline set
  }
}

void EventKernel::complete(std::uint32_t slot, double now) {
  // Early promote: at this point the dirty flags can only have been set by
  // advance() finishing the running job (abandons and miss sweeps happen in
  // later steps of the instant and are rescanned at the next sync before any
  // completion). Promoting the runner-up here -- before this instant's
  // releases -- keeps the scalars exact so releases can keep folding new
  // candidates in incrementally.
  if (edf_dirty_ && static_cast<std::int32_t>(slot) == running_slot_ &&
      running2_ != kUnknownSlot) {
    running_slot_ = running2_;
    running2_ = kUnknownSlot;
    edf_dirty_ = false;
  }
  if (deadline_dirty_ && !std::isnan(deadline_min2_)) {
    deadline_min_ = deadline_min2_;
    deadline_min2_ = kUnknownTime;
    deadline_dirty_ = false;
  }
  const std::uint32_t i = job_task_[slot];
  const std::uint8_t flags = job_flags_[slot];
  // An overrunning HI job finishing while still in LO mode slipped past
  // the budget monitor entirely (possible only with polled detection).
  if (polled_ && mode_ == Mode::LO && (flags & kFlagOverruns)) {
    ++result_.undetected_overruns;
    record_event(now, TraceEvent::Kind::kUndetectedOverrun, slot);
  }
  record_event(now, TraceEvent::Kind::kCompletion, slot);
  ++result_.jobs_completed;
  TaskStats& stats = result_.task_stats[i];
  ++stats.completed;
  const double response = now - job_release_[slot];
  stats.max_response = std::max(stats.max_response, response);
  stats.total_response += response;
  if (prev_job_ == job_id_[slot]) prev_job_ = kNoJob;
  if (flags & kFlagCrossed) {
    --crossed_count_;
    if (crossed_count_ == 0) poll_armed_ = false;  // the poll candidate vanishes
  }
  remove_from_active(slot);
  free_slots_.push_back(slot);
}

void EventKernel::abandon(std::uint32_t slot) {
  --unfinished_count_;
  if (job_flags_[slot] & kFlagCrossed) {
    --crossed_count_;
    if (crossed_count_ == 0) poll_armed_ = false;
  }
  // Deliberately does NOT clear prev_job_: the oracle counts a preemption
  // when a different job runs after an abandoned one.
  remove_from_active(slot);
  free_slots_.push_back(slot);
}

void EventKernel::remove_from_active(std::uint32_t slot) {
  for (std::size_t k = 0; k < active_.size(); ++k) {
    if (active_[k] == slot) {
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(k));
      return;
    }
  }
}

void EventKernel::release(std::uint32_t task, double now) {
  // One jitter draw per release, scripted or not, to keep the stream
  // aligned with the reference kernel.
  const double jitter =
      cfg_->release_jitter > 0.0 ? 1.0 + rng_.uniform(0.0, cfg_->release_jitter) : 1.0;
  next_lo_[task] = now + task_t_lo_[task] * jitter;
  next_hi_[task] = task_t_hi_inf_[task] ? kInfTime : now + task_t_hi_[task] * jitter;

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(job_task_.size());
    job_task_.push_back(0);
    job_id_.push_back(0);
    job_release_.push_back(0.0);
    job_deadline_.push_back(0.0);
    job_demand_.push_back(0.0);
    job_executed_.push_back(0.0);
    job_flags_.push_back(0);
  }
  const std::uint64_t id = next_job_id_++;
  job_task_[slot] = task;
  job_id_[slot] = id;
  job_release_[slot] = now;
  job_deadline_[slot] = now + (mode_ == Mode::LO ? task_d_lo_[task] : task_d_hi_[task]);
  bool overruns = false;
  double demand;
  if (scripted()) {
    demand = std::max(kMinPositiveWork, cfg_->scripted_arrivals[task][script_pos_[task]].demand);
    overruns = task_is_hi_[task] != 0 && demand > task_c_lo_[task] + kEpsWork;
    ++script_pos_[task];
  } else {
    demand = sample_demand(task, now, overruns);
  }
  job_demand_[slot] = demand;
  job_executed_[slot] = 0.0;

  std::uint8_t flags = overruns ? kFlagOverruns : std::uint8_t{0};
  // Trigger eligibility is demand-based, not overrun-flag-based: a base
  // fraction above 1 can push a non-"overrunning" draw past C(LO).
  const bool eligible = task_is_hi_[task] != 0 && demand > task_c_lo_[task] + kEpsWork;
  if (eligible) flags |= kFlagEligible;
  const bool born_finished = 0.0 >= demand - kEpsWork;
  if (born_finished) flags |= kFlagFinished;
  job_flags_[slot] = flags;
  active_.push_back(slot);

  if (born_finished) {
    // Degenerate near-zero demand: completes at the NEXT dispatched
    // instant (the oracle's step-1 sweep runs before releases).
    pending_finished_.push_back(slot);
  } else {
    ++unfinished_count_;
    if (eligible && 0.0 >= task_c_lo_[task] - kEpsWork) {
      job_flags_[slot] |= kFlagCrossed;
      ++crossed_count_;
    }
    if (!edf_dirty_) {
      if (running_slot_ < 0 ||
          beats(slot, static_cast<std::uint32_t>(running_slot_))) {
        running2_ = running_slot_;  // demoted best is the exact runner-up
        running_slot_ = static_cast<std::int32_t>(slot);
      } else if (running2_ == -1 ||
                 (running2_ >= 0 &&
                  beats(slot, static_cast<std::uint32_t>(running2_)))) {
        running2_ = static_cast<std::int32_t>(slot);
      }
    }
    const double d = job_deadline_[slot];
    if (d < deadline_min_) {
      deadline_min2_ = deadline_min_;  // demoted minimum heals an unknown
      deadline_min_ = d;
    } else if (d < deadline_min2_) {
      deadline_min2_ = d;
    }
  }

  ++result_.jobs_released;
  ++result_.task_stats[task].released;
  record_event(now, TraceEvent::Kind::kRelease, slot);
  if (trace_on_)
    result_.trace.jobs.push_back({static_cast<int>(task), id, now, demand});

  // Re-arm the lane. Fast path of push_release_event: a task that just
  // released cannot be suppressed (a suppressed task is never swept due).
  double base;
  if (scripted()) {
    const auto& script = cfg_->scripted_arrivals[task];
    base = script_pos_[task] < script.size() ? script[script_pos_[task]].release
                                             : kInfTime;
  } else {
    base = mode_ == Mode::LO ? next_lo_[task] : next_hi_[task];
  }
  if (base < cfg_->horizon) {
    armed_time_[task] = base;
    // Incremental argmin: the sweep left release_min_ exact over the kept
    // entries, and a re-arm of a consumed (-1) entry can only add a
    // candidate, never hide one.
    if (base < release_min_) release_min_ = base;
  } else {
    armed_time_[task] = -1.0;
  }
}

double EventKernel::sample_demand(std::uint32_t task, double now, bool& overruns) {
  const double c_lo = task_c_lo_[task];
  const double c_hi = task_c_hi_[task];
  overruns = false;
  // Burst separation (Section IV remark): no overrun within T_O of the
  // last switch.
  const bool separated = cfg_->min_overrun_separation <= 0.0 || last_switch_ < 0.0 ||
                         now - last_switch_ >= cfg_->min_overrun_separation;
  if (task_is_hi_[task] != 0 && c_hi > c_lo && separated &&
      rng_.bernoulli(cfg_->demand.overrun_probability)) {
    overruns = true;
    if (cfg_->demand.overrun_shape == DemandModel::OverrunShape::kFull) return c_hi;
    // strictly above C(LO): the trigger condition must be reachable
    const double fraction = std::max(kMinOverrunFraction, rng_.uniform(0.0, 1.0));
    return c_lo + fraction * (c_hi - c_lo);
  }
  const double fraction =
      cfg_->demand.base_fraction_min >= cfg_->demand.base_fraction_max
          ? cfg_->demand.base_fraction_max
          : rng_.uniform(cfg_->demand.base_fraction_min, cfg_->demand.base_fraction_max);
  return std::max(kMinPositiveWork, fraction * c_lo);
}

void EventKernel::switch_to_hi(double now) {
  mode_ = Mode::HI;
  cur_fault_ =
      resolve_fault(cfg_->faults, episode_index_++, fault_rng_, cfg_->lo_speed, cfg_->hi_speed);
  episode_latency_ = cfg_->speed_change_latency + cur_fault_.extra_latency;
  episode_target_ = cur_fault_.deny_boost ? cfg_->lo_speed
                    : cur_fault_.achieved_speed > 0.0 ? cur_fault_.achieved_speed
                                                      : cfg_->hi_speed;
  set_speed(episode_latency_ > 0.0 ? cfg_->lo_speed : episode_target_);
  boost_pending_ = speed_ != episode_target_;
  // A denied boost never reaches a speed worth throttling down from.
  throttle_pending_ = !cur_fault_.deny_boost && cur_fault_.throttle_after > 0.0;
  hi_since_ = now;
  last_switch_ = now;
  ++result_.mode_switches;
  record_event(now, TraceEvent::Kind::kModeSwitchHi);
  if (cur_fault_.any()) {
    ++result_.faults_injected;
    record_event(now, TraceEvent::Kind::kFaultEngaged);
  }

  // Deadline rewrite, in job-id order: dropped tasks lose their deadline (or
  // their carry-over job outright), everyone else extends to release + D(HI).
  abandon_scratch_.clear();
  for (std::uint32_t slot : active_) {
    if (job_flags_[slot] & kFlagFinished) continue;
    const std::uint32_t i = job_task_[slot];
    if (task_dropped_[i]) {
      if (cfg_->discard_dropped_carryover) {
        abandon_scratch_.push_back(slot);
        record_event(now, TraceEvent::Kind::kJobAbandoned, slot);
      } else {
        job_deadline_[slot] = kInfTime;  // must still finish, but carries no deadline
      }
    } else {
      job_deadline_[slot] = job_release_[slot] + task_d_hi_[i];
    }
  }
  for (std::uint32_t slot : abandon_scratch_) {
    abandon(slot);
    ++result_.jobs_abandoned;
  }
  edf_dirty_ = true;
  deadline_dirty_ = true;
  running2_ = kUnknownSlot;  // abandons may have removed either runner-up
  deadline_min2_ = kUnknownTime;
  poll_armed_ = false;  // the LO-mode poll candidate dies with the switch

  re_arm_all_releases();
  // Episode timers, stamped with the switch count so the next episode's
  // timers never alias this one's.
  const std::uint64_t stamp = result_.mode_switches;
  if (cfg_->max_boost_duration > 0.0 && hi_since_ + cfg_->max_boost_duration < cfg_->horizon)
    queue_.push({hi_since_ + cfg_->max_boost_duration, EventKind::kTurboBudgetExpiry, 0, stamp});
  if (boost_pending_ && hi_since_ + episode_latency_ < cfg_->horizon)
    queue_.push({hi_since_ + episode_latency_, EventKind::kBoostLatencyExpiry, 0, stamp});
  if (throttle_pending_ && hi_since_ + cur_fault_.throttle_after < cfg_->horizon)
    queue_.push({hi_since_ + cur_fault_.throttle_after, EventKind::kThrottleDown, 0, stamp});
}

void EventKernel::reset(double now) {
  result_.hi_dwell_times.push_back(now - hi_since_);
  mode_ = Mode::LO;
  set_speed(cfg_->lo_speed);
  fallback_active_ = false;
  boost_pending_ = false;
  throttle_pending_ = false;
  cur_fault_ = FaultSpec{};
  record_event(now, TraceEvent::Kind::kReset);
  re_arm_all_releases();  // deferred LO/dropped releases fire this instant
}

void EventKernel::budget_fallback(double now) {
  fallback_active_ = true;
  set_speed(cfg_->lo_speed);  // overclocking ends here
  boost_pending_ = false;
  throttle_pending_ = false;
  ++result_.budget_fallbacks;
  record_event(now, TraceEvent::Kind::kBudgetFallback);
  abandon_scratch_.clear();
  for (std::uint32_t slot : active_) {
    if (!(job_flags_[slot] & kFlagFinished) && !task_is_hi_[job_task_[slot]]) {
      abandon_scratch_.push_back(slot);
      record_event(now, TraceEvent::Kind::kJobAbandoned, slot);
    }
  }
  for (std::uint32_t slot : abandon_scratch_) {
    abandon(slot);
    ++result_.jobs_abandoned;
  }
  edf_dirty_ = true;
  deadline_dirty_ = true;
  running2_ = kUnknownSlot;  // abandons may have removed either runner-up
  deadline_min2_ = kUnknownTime;
  re_arm_all_releases();
}

void EventKernel::core_fail(double now) {
  fail_armed_ = false;
  core_failed_ = true;
  record_event(now, TraceEvent::Kind::kCoreFault);
  // The fail-stop takes its ready queue with it: every in-flight job --
  // including jobs awaiting their completion sweep at this very instant --
  // is destroyed, counted as lost rather than missed. The run terminates
  // immediately after, so the scheduling caches are reset wholesale instead
  // of being repaired incrementally.
  abandon_scratch_.assign(active_.begin(), active_.end());
  for (std::uint32_t slot : abandon_scratch_) {
    ++result_.jobs_lost_to_fault;
    if (job_flags_[slot] & kFlagFinished) {
      remove_from_active(slot);
      free_slots_.push_back(slot);
    } else {
      abandon(slot);
    }
  }
  pending_finished_.clear();
  unfinished_count_ = 0;
  crossed_count_ = 0;
  running_slot_ = -1;
  running2_ = -1;
  edf_dirty_ = false;
  deadline_min_ = kInfTime;
  deadline_min2_ = kInfTime;
  deadline_dirty_ = false;
  poll_armed_ = false;
}

void EventKernel::finalize() {
  // The censored final dwell is intentionally not recorded.
  if (mode_ == Mode::HI) result_.ended_in_hi_mode = true;
}

void EventKernel::record_event(double time, TraceEvent::Kind kind) {
  if (!trace_on_) return;
  result_.trace.events.push_back({time, kind, -1, 0});
}

void EventKernel::record_event(double time, TraceEvent::Kind kind, std::uint32_t slot) {
  if (!trace_on_) return;
  result_.trace.events.push_back({time, kind, static_cast<int>(job_task_[slot]), job_id_[slot]});
}

}  // namespace rbs::sim
