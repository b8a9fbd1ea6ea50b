// Legacy stepping kernel, kept byte-for-byte as the differential-test
// oracle (see reference_kernel.hpp). The event kernel in event_kernel.cpp
// must reproduce this engine's SimMetrics exactly -- including the RNG draw
// order (initial offsets in task order, then per-release jitter and demand
// draws in release order) and the floating-point accumulation order of
// busy_time and response-time sums.
#include "sim/reference_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "gen/rng.hpp"
#include "sim/job.hpp"
#include "support/tolerance.hpp"

namespace rbs::sim {

namespace {

// Absolute comparison slacks from the project tolerance policy
// (support/tolerance.hpp): event times and executed work share kTimeTol;
// tick magnitudes stay far below 2^40, so its absolute term sits safely
// above rounding noise yet far below one tick.
constexpr double kEpsTime = kTimeTol.absolute;
constexpr double kEpsWork = kTimeTol.absolute;

class Engine {
 public:
  Engine(const TaskSet& set, const SimConfig& cfg)
      : set_(set),
        cfg_(cfg),
        rng_(cfg.seed),
        // Dedicated fault stream: fault draws must not perturb demand/jitter
        // draws, so fault-free and faulted runs share arrival processes.
        fault_rng_(cfg.faults.random.seed != 0 ? cfg.faults.random.seed
                                               : cfg.seed ^ 0x9e3779b97f4a7c15ULL) {}

  // Test-only oracle: exempt from the hot-path discipline (the production
  // event kernel carries the RBS_HOT_PATH annotation instead).
  SimMetrics run() {
    init();
    double now = 0.0;

    while (now < cfg_.horizon) {
      Job* running = pick_running();
      const double t_next = next_event_time(now, running);
      advance(now, std::min(t_next, cfg_.horizon), running);
      now = std::min(t_next, cfg_.horizon);
      if (now >= cfg_.horizon) break;
      process_events(now);
    }

    finalize(now);
    return std::move(result_);
  }

 private:
  struct TaskState {
    double last_release = -kInfTime;
    double earliest_next_lo = 0.0;  ///< last release + T(LO) * jitter draw
    double earliest_next_hi = 0.0;  ///< last release + T(HI) * jitter draw
    std::size_t script_pos = 0;     ///< next entry when arrivals are scripted
  };

  bool scripted() const { return !cfg_.scripted_arrivals.empty(); }

  void init() {
    result_ = SimMetrics{};
    result_.horizon = cfg_.horizon;
    result_.task_stats.assign(set_.size(), TaskStats{});
    states_.assign(set_.size(), TaskState{});
    for (std::size_t i = 0; i < set_.size(); ++i) {
      double offset = 0.0;
      if (cfg_.initial_offset_spread > 0.0)
        offset = rng_.uniform(0.0, cfg_.initial_offset_spread *
                                       static_cast<double>(set_[i].period(Mode::LO)));
      // Per-task start times shift the base before the offset, exactly like
      // the event kernel (differential scenarios may therefore use them).
      const double start = cfg_.start_times.empty() ? 0.0 : cfg_.start_times[i];
      states_[i].earliest_next_lo = start + offset;
      states_[i].earliest_next_hi = start + offset;
    }
    jobs_.clear();
    scratch_ids_.clear();
    scratch_ids_.reserve(set_.size() * 2 + 8);  // steady-state job population
    mode_ = Mode::LO;
    speed_ = cfg_.lo_speed;
    hi_since_ = 0.0;
    prev_job_.reset();
    next_job_id_ = 0;
    episode_index_ = 0;
    cur_fault_ = FaultSpec{};
    episode_latency_ = 0.0;
    episode_target_ = cfg_.hi_speed;
    boost_pending_ = false;
    throttle_pending_ = false;
  }

  // ---- budget-monitor polling (delayed overrun detection fault) ----------

  /// Earliest instant at which a budget crossing at `t_exhaust` is noticed.
  double detection_time(double t_exhaust) const {
    const double delta = cfg_.faults.detection_period;
    if (delta <= 0.0) return t_exhaust;
    const double k = std::max(0.0, std::ceil((t_exhaust - kEpsTime) / delta));
    return k * delta;
  }

  double next_poll_after(double now) const {
    const double delta = cfg_.faults.detection_period;
    return (std::floor((now + kEpsTime) / delta) + 1.0) * delta;
  }

  bool at_poll_instant(double now) const {
    const double delta = cfg_.faults.detection_period;
    if (delta <= 0.0) return true;
    const double r = std::fmod(now, delta);
    return r <= kEpsTime || delta - r <= kEpsTime;
  }

  // ---- scheduling -------------------------------------------------------

  Job* pick_running() {
    Job* best = nullptr;
    for (Job& j : jobs_) {
      if (j.finished(kEpsWork)) continue;
      if (!best || j.deadline < best->deadline ||
          (j.deadline == best->deadline &&
           (j.task_index < best->task_index ||
            (j.task_index == best->task_index && j.id < best->id))))
        best = &j;
    }
    return best;
  }

  double release_candidate(std::size_t i, double now) const {
    const McTask& task = set_[i];
    if (mode_ == Mode::HI && task.dropped_in_hi()) return kInfTime;
    if (fallback_active_ && !task.is_hi()) return kInfTime;  // LO terminated
    double base;
    if (scripted()) {
      const auto& script = cfg_.scripted_arrivals[i];
      if (states_[i].script_pos >= script.size()) return kInfTime;
      base = script[states_[i].script_pos].release;
    } else {
      base = mode_ == Mode::LO ? states_[i].earliest_next_lo : states_[i].earliest_next_hi;
    }
    return std::max(base, now);
  }

  double next_event_time(double now, const Job* running) {
    double t = cfg_.horizon;
    for (std::size_t i = 0; i < set_.size(); ++i)
      t = std::min(t, release_candidate(i, now));

    if (running) {
      t = std::min(t, now + running->remaining() / speed_);
      const McTask& task = set_[running->task_index];
      const auto c_lo = static_cast<double>(task.wcet(Mode::LO));
      if (mode_ == Mode::LO && task.is_hi() && running->demand > c_lo + kEpsWork &&
          running->executed < c_lo)
        t = std::min(t, detection_time(now + (c_lo - running->executed) / speed_));
    }

    // Delayed detection: a job that crossed its budget between polls (and
    // was possibly preempted since) is noticed at the next poll instant.
    if (mode_ == Mode::LO && cfg_.faults.detection_period > 0.0) {
      for (const Job& j : jobs_) {
        if (j.finished(kEpsWork)) continue;
        const McTask& task = set_[j.task_index];
        const auto c_lo = static_cast<double>(task.wcet(Mode::LO));
        if (task.is_hi() && j.demand > c_lo + kEpsWork && j.executed >= c_lo - kEpsWork) {
          t = std::min(t, next_poll_after(now));
          break;
        }
      }
    }

    for (const Job& j : jobs_)
      if (!j.finished(kEpsWork) && !j.miss_recorded && j.deadline < kInfTime &&
          j.deadline > now + kEpsTime)
        t = std::min(t, j.deadline);

    if (mode_ == Mode::HI && !fallback_active_) {
      if (cfg_.max_boost_duration > 0.0) t = std::min(t, hi_since_ + cfg_.max_boost_duration);
      if (boost_pending_) t = std::min(t, hi_since_ + episode_latency_);
      if (throttle_pending_) t = std::min(t, hi_since_ + cur_fault_.throttle_after);
    }

    return std::max(t, now);
  }

  void advance(double now, double until, Job* running) {
    const double dt = std::max(0.0, until - now);
    if (dt <= 0.0) return;
    if (running) {
      running->executed += dt * speed_;
      result_.busy_time += dt;
      if (prev_job_ && *prev_job_ != running->id) ++result_.preemptions;
      prev_job_ = running->id;
    }
    if (cfg_.record_trace) {
      TraceSegment seg;
      seg.start = now;
      seg.end = until;
      seg.task_index = running ? static_cast<int>(running->task_index) : -1;
      seg.job_id = running ? running->id : 0;
      seg.speed = speed_;
      seg.mode = mode_;
      auto& segments = result_.trace.segments;
      if (!segments.empty()) {
        TraceSegment& last = segments.back();
        if (last.end == seg.start && last.task_index == seg.task_index &&
            last.job_id == seg.job_id && last.speed == seg.speed && last.mode == seg.mode) {
          last.end = seg.end;
          return;
        }
      }
      segments.push_back(seg);
    }
  }

  // ---- event processing (fixed priority: completion & reset, overrun
  // trigger, releases, deadline checks) -----------------------------------

  void process_events(double now) {
    // 1. Completions (only the job that just ran can newly finish, but sweep
    // all jobs: pick_running() skips finished ones by design).
    std::vector<std::uint64_t>& done = scratch_ids_;
    done.clear();
    for (const Job& j : jobs_)
      if (j.finished(kEpsWork)) done.push_back(j.id);
    for (std::uint64_t id : done) {
      for (Job& j : jobs_)
        if (j.id == id) {
          complete(j, now);
          break;
        }
    }

    // 2. Idle instant in HI mode: reset to LO mode and nominal speed.
    if (mode_ == Mode::HI && active_jobs() == 0) reset(now);

    // 2a. DVFS transition complete: the (possibly faulted) boost engages at
    // the episode's target speed -- hi_speed, or the partial-boost s'.
    if (mode_ == Mode::HI && !fallback_active_ && boost_pending_ &&
        now >= hi_since_ + episode_latency_ - kEpsTime) {
      speed_ = episode_target_;
      boost_pending_ = false;
    }

    // 2a'. Injected throttle-down: the boost collapses mid-episode and stays
    // collapsed until the idle-instant reset.
    if (mode_ == Mode::HI && !fallback_active_ && throttle_pending_ &&
        now >= hi_since_ + cur_fault_.throttle_after - kEpsTime) {
      throttle_pending_ = false;
      boost_pending_ = false;
      speed_ = cur_fault_.throttle_speed > 0.0 ? cur_fault_.throttle_speed : cfg_.lo_speed;
      ++result_.throttle_downs;
      record_event(now, TraceEvent::Kind::kThrottleDown);
    }

    // 2b. Turbo budget exhausted: stop overclocking, terminate LO tasks.
    if (mode_ == Mode::HI && !fallback_active_ && cfg_.max_boost_duration > 0.0 &&
        now >= hi_since_ + cfg_.max_boost_duration - kEpsTime)
      budget_fallback(now);

    // 3. Overrun trigger: a HI job reached its C(LO) budget unfinished. With
    // a polled budget monitor (delayed-detection fault) the check only fires
    // at poll instants k * delta.
    if (mode_ == Mode::LO && at_poll_instant(now)) {
      for (Job& j : jobs_) {
        if (j.finished(kEpsWork)) continue;
        const McTask& task = set_[j.task_index];
        if (!task.is_hi()) continue;
        const auto c_lo = static_cast<double>(task.wcet(Mode::LO));
        if (j.demand > c_lo + kEpsWork && j.executed >= c_lo - kEpsWork) {
          record_event(now, TraceEvent::Kind::kOverrunTrigger, j);
          switch_to_hi(now);
          break;
        }
      }
    }

    // 4. Releases due now (possibly several tasks at once).
    for (std::size_t i = 0; i < set_.size(); ++i)
      if (release_candidate(i, now) <= now + kEpsTime) release(i, now);

    // 5. Deadline misses.
    for (Job& j : jobs_) {
      if (j.finished(kEpsWork) || j.miss_recorded) continue;
      if (j.deadline < kInfTime && j.deadline <= now + kEpsTime) {
        j.miss_recorded = true;
        result_.misses.push_back({j.task_index, j.id, j.deadline, mode_});
        ++result_.task_stats[j.task_index].misses;
        record_event(now, TraceEvent::Kind::kDeadlineMiss, j);
      }
    }
  }

  std::size_t active_jobs() const {
    std::size_t n = 0;
    for (const Job& j : jobs_) n += j.finished(kEpsWork) ? 0 : 1;
    return n;
  }

  void complete(Job& job, double now) {
    // An overrunning HI job finishing while still in LO mode slipped past
    // the budget monitor entirely (possible only with polled detection).
    if (mode_ == Mode::LO && job.overruns && cfg_.faults.detection_period > 0.0) {
      ++result_.undetected_overruns;
      record_event(now, TraceEvent::Kind::kUndetectedOverrun, job);
    }
    record_event(now, TraceEvent::Kind::kCompletion, job);
    ++result_.jobs_completed;
    TaskStats& stats = result_.task_stats[job.task_index];
    ++stats.completed;
    const double response = now - job.release;
    stats.max_response = std::max(stats.max_response, response);
    stats.total_response += response;
    if (prev_job_ && *prev_job_ == job.id) prev_job_.reset();
    erase_job(job.id);
  }

  void erase_job(std::uint64_t id) {
    std::erase_if(jobs_, [id](const Job& j) { return j.id == id; });
  }

  void release(std::size_t i, double now) {
    const McTask& task = set_[i];
    TaskState& st = states_[i];
    st.last_release = now;
    const double jitter =
        cfg_.release_jitter > 0.0 ? 1.0 + rng_.uniform(0.0, cfg_.release_jitter) : 1.0;
    st.earliest_next_lo = now + static_cast<double>(task.period(Mode::LO)) * jitter;
    st.earliest_next_hi = is_inf(task.period(Mode::HI))
                              ? kInfTime
                              : now + static_cast<double>(task.period(Mode::HI)) * jitter;

    Job job;
    job.task_index = i;
    job.id = next_job_id_++;
    job.release = now;
    job.deadline = now + static_cast<double>(task.deadline(mode_));
    if (scripted()) {
      job.demand = std::max(kMinPositiveWork, cfg_.scripted_arrivals[i][st.script_pos].demand);
      job.overruns = task.is_hi() &&
                     job.demand > static_cast<double>(task.wcet(Mode::LO)) + kEpsWork;
      ++st.script_pos;
    } else {
      job.demand = sample_demand(task, now, job.overruns);
    }
    jobs_.push_back(job);
    ++result_.jobs_released;
    ++result_.task_stats[i].released;
    record_event(now, TraceEvent::Kind::kRelease, job);
    if (cfg_.record_trace)
      result_.trace.jobs.push_back({static_cast<int>(i), job.id, job.release, job.demand});
  }

  double sample_demand(const McTask& task, double now, bool& overruns) {
    const auto c_lo = static_cast<double>(task.wcet(Mode::LO));
    const auto c_hi = static_cast<double>(task.wcet(Mode::HI));
    overruns = false;
    // Burst separation (Section IV remark): no overrun within T_O of the
    // last switch.
    const bool separated = cfg_.min_overrun_separation <= 0.0 ||
                           last_switch_ < 0.0 ||
                           now - last_switch_ >= cfg_.min_overrun_separation;
    if (task.is_hi() && c_hi > c_lo && separated &&
        rng_.bernoulli(cfg_.demand.overrun_probability)) {
      overruns = true;
      if (cfg_.demand.overrun_shape == DemandModel::OverrunShape::kFull) return c_hi;
      // strictly above C(LO): the trigger condition must be reachable
      const double fraction = std::max(kMinOverrunFraction, rng_.uniform(0.0, 1.0));
      return c_lo + fraction * (c_hi - c_lo);
    }
    const double fraction =
        cfg_.demand.base_fraction_min >= cfg_.demand.base_fraction_max
            ? cfg_.demand.base_fraction_max
            : rng_.uniform(cfg_.demand.base_fraction_min, cfg_.demand.base_fraction_max);
    return std::max(kMinPositiveWork, fraction * c_lo);
  }

  void switch_to_hi(double now) {
    mode_ = Mode::HI;
    cur_fault_ =
        resolve_fault(cfg_.faults, episode_index_++, fault_rng_, cfg_.lo_speed, cfg_.hi_speed);
    episode_latency_ = cfg_.speed_change_latency + cur_fault_.extra_latency;
    episode_target_ = cur_fault_.deny_boost ? cfg_.lo_speed
                      : cur_fault_.achieved_speed > 0.0 ? cur_fault_.achieved_speed
                                                        : cfg_.hi_speed;
    speed_ = episode_latency_ > 0.0 ? cfg_.lo_speed : episode_target_;
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

    std::vector<std::uint64_t>& abandoned = scratch_ids_;
    abandoned.clear();
    for (Job& j : jobs_) {
      if (j.finished(kEpsWork)) continue;
      const McTask& task = set_[j.task_index];
      if (task.dropped_in_hi()) {
        if (cfg_.discard_dropped_carryover) {
          abandoned.push_back(j.id);
          record_event(now, TraceEvent::Kind::kJobAbandoned, j);
        } else {
          j.deadline = kInfTime;  // must still finish, but carries no deadline
        }
      } else {
        j.deadline = j.release + static_cast<double>(task.deadline(Mode::HI));
      }
    }
    for (std::uint64_t id : abandoned) {
      erase_job(id);
      ++result_.jobs_abandoned;
    }
  }

  void reset(double now) {
    result_.hi_dwell_times.push_back(now - hi_since_);
    mode_ = Mode::LO;
    speed_ = cfg_.lo_speed;
    fallback_active_ = false;
    boost_pending_ = false;
    throttle_pending_ = false;
    cur_fault_ = FaultSpec{};
    record_event(now, TraceEvent::Kind::kReset);
  }

  void budget_fallback(double now) {
    fallback_active_ = true;
    speed_ = cfg_.lo_speed;  // overclocking ends here
    boost_pending_ = false;
    throttle_pending_ = false;
    ++result_.budget_fallbacks;
    record_event(now, TraceEvent::Kind::kBudgetFallback);
    std::vector<std::uint64_t>& abandoned = scratch_ids_;
    abandoned.clear();
    for (Job& j : jobs_)
      if (!j.finished(kEpsWork) && !set_[j.task_index].is_hi()) {
        abandoned.push_back(j.id);
        record_event(now, TraceEvent::Kind::kJobAbandoned, j);
      }
    for (std::uint64_t id : abandoned) {
      erase_job(id);
      ++result_.jobs_abandoned;
    }
  }

  void finalize(double now) {
    if (mode_ == Mode::HI) {
      result_.ended_in_hi_mode = true;
      (void)now;  // the censored dwell is intentionally not recorded
    }
  }

  void record_event(double time, TraceEvent::Kind kind) {
    if (!cfg_.record_trace) return;
    result_.trace.events.push_back({time, kind, -1, 0});
  }

  void record_event(double time, TraceEvent::Kind kind, const Job& job) {
    if (!cfg_.record_trace) return;
    result_.trace.events.push_back({time, kind, static_cast<int>(job.task_index), job.id});
  }

  const TaskSet& set_;
  const SimConfig& cfg_;
  Rng rng_;
  Rng fault_rng_;

  // Per-episode boost-fault state (sim/faults.hpp).
  FaultSpec cur_fault_;
  double episode_latency_ = 0.0;  ///< speed_change_latency + injected extra
  double episode_target_ = 1.0;   ///< speed the boost will reach this episode
  bool boost_pending_ = false;    ///< engagement latency still running
  bool throttle_pending_ = false; ///< injected throttle not yet fired
  std::size_t episode_index_ = 0; ///< 0-based count of mode switches so far

  std::vector<TaskState> states_;
  std::vector<Job> jobs_;
  /// Job-id scratch shared by process_events/switch_to_hi/budget_fallback:
  /// each user clears it first and none keeps it live across a call into
  /// another user, so one reserved buffer replaces three per-step vectors.
  std::vector<std::uint64_t> scratch_ids_;
  Mode mode_ = Mode::LO;
  double speed_ = 1.0;
  double hi_since_ = 0.0;
  double last_switch_ = -1.0;  // time of the most recent LO->HI switch
  bool fallback_active_ = false;
  std::optional<std::uint64_t> prev_job_;
  std::uint64_t next_job_id_ = 0;
  SimMetrics result_;
};

}  // namespace

Expected<SimMetrics> reference_simulate(const TaskSet& set, const SimConfig& config) {
  const Status status = validate_config(set, config);
  if (!status) return status;
  Engine engine(set, config);
  return engine.run();
}

}  // namespace rbs::sim
