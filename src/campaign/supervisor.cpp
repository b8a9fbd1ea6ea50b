#include "campaign/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "support/det_annotations.hpp"
#include "support/thread_annotations.hpp"

namespace rbs::campaign {

void CancelToken::throw_if_cancelled() const {
  if (cancelled()) throw CampaignCancelled{};
}

namespace {

std::atomic<bool> g_stop{false};

void stop_signal_handler(int /*signum*/) {
  // Async-signal-safe: a lock-free atomic store and nothing else. rbs_lint's
  // signal-safety rule walks everything reachable from here against the
  // async-signal-safe allowlist.
  g_stop.store(true, std::memory_order_relaxed);
}

// Wall-clock time is deliberate here: soft deadlines measure real elapsed
// time of an item, not simulated ticks. Results never depend on it -- a
// deadline kill only triggers a deterministic retry of the same seed stream.
using Clock = std::chrono::steady_clock;  // rbs-lint: allow(nondet)

}  // namespace

const std::atomic<bool>* install_stop_handlers() {
  std::signal(SIGINT, stop_signal_handler);
  std::signal(SIGTERM, stop_signal_handler);
  return &g_stop;
}

bool stop_requested() { return g_stop.load(std::memory_order_relaxed); }

std::uint64_t item_seed(std::uint64_t campaign_seed, std::uint64_t index) {
  // SplitMix64 (Steele, Lea & Flood) over the campaign seed offset by the
  // item index; the golden-ratio stride keeps neighbouring items' inputs far
  // apart in the hash space.
  std::uint64_t z = campaign_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- DeadlineWatchdog -------------------------------------------------------

DeadlineWatchdog::DeadlineWatchdog(Options options) : options_(std::move(options)) {
  if (options_.soft_deadline_s > 0.0 || options_.stop != nullptr)
    thread_ = std::thread([this] { loop(); });
}

DeadlineWatchdog::~DeadlineWatchdog() {
  if (!thread_.joinable()) return;
  {
    const LockGuard lock(mutex_);
    done_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

// RBS_DET_ESCAPE: the arming timestamp measures real elapsed time and decides
// only *whether a deterministic retry happens*, never what any retry
// computes -- the per-item seed stream replays identically. The canonical
// justified wall-clock read rbs_det's escape policy exists for.
std::uint64_t DeadlineWatchdog::watch(std::shared_ptr<CancelToken> token)
    RBS_DET_ESCAPE(watchdog_arming_timestamp_never_in_results) {
  if (!active() || token == nullptr) return 0;
  const LockGuard lock(mutex_);
  const std::uint64_t id = next_id_++;
  watched_[id] = {std::move(token), Clock::now()};
  return id;
}

void DeadlineWatchdog::unwatch(std::uint64_t id) {
  if (id == 0 || !active()) return;
  const LockGuard lock(mutex_);
  watched_.erase(id);
}

void DeadlineWatchdog::cancel_all(CancelToken::Reason reason) {
  std::vector<std::shared_ptr<CancelToken>> tokens;
  {
    const LockGuard lock(mutex_);
    tokens.reserve(watched_.size());
    for (const auto& [id, watched] : watched_) tokens.push_back(watched.token);
  }
  for (const auto& token : tokens) token->cancel(reason);
}

void DeadlineWatchdog::loop() {
  const std::chrono::duration<double> deadline(options_.soft_deadline_s);
  UniqueLock lock(mutex_);
  while (!done_) {
    // Plain timed wait; the loop re-checks `done_` under the lock, so a
    // spurious or shutdown wakeup is handled identically to a timeout.
    cv_.wait_for(lock, options_.poll);
    if (done_) return;

    const bool fire_stop = options_.stop != nullptr &&
                           options_.stop->load(std::memory_order_relaxed) && !stop_fired_;
    if (fire_stop) stop_fired_ = true;

    if (options_.soft_deadline_s > 0.0) {
      const Clock::time_point now = Clock::now();
      for (auto& [id, watched] : watched_)
        if (now - watched.start >= deadline)
          watched.token->cancel(CancelToken::Reason::kDeadline);
    }

    if (fire_stop) {
      // The callback may take the caller's own mutex (workers hold it while
      // calling watch()), so the internal lock -- a leaf in the lock order --
      // must be dropped first. on_stop runs BEFORE the drain cancellation:
      // once it returns no caller claims new work, so every token cancel_all
      // sees is the complete in-flight set.
      lock.unlock();
      if (options_.on_stop) options_.on_stop();
      cancel_all(CancelToken::Reason::kStop);
      lock.lock();
    }
  }
}

Supervisor::Supervisor(const SupervisorOptions& options) : options_(options) {
  jobs_ = options.campaign.jobs;
  if (jobs_ == 0) {
    jobs_ = std::thread::hardware_concurrency();
    if (jobs_ == 0) jobs_ = 1;
  }
}

// RBS_DET_PATH: the SIGKILL/resume byte-compare suites ride on this function
// producing the same report (and the same journal bytes) for the same seed
// and journal state, at any worker count.
RBS_DET_PATH CampaignReport Supervisor::run(std::size_t count, const SupervisedFn& fn,
                                            const LoadedJournal* resume) const {
  CampaignReport report;
  report.items.resize(count);
  if (count == 0) return report;

  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, options_.max_attempts);
  const std::uint64_t seed = options_.campaign.seed;

  struct Work {
    std::size_t index = 0;
    std::uint32_t attempt = 1;  ///< 1-based attempt this claim will execute
  };
  // The shared scheduling state. Every mutable member is RBS_GUARDED_BY the
  // struct's mutex, so both Clang's -Wthread-safety and rbs_lint's
  // lock-discipline rule verify that workers and the stop callback never
  // touch it without holding the lock. Token age tracking lives in the
  // DeadlineWatchdog below, not here.
  struct State {
    Mutex mutex;
    CondVar work_cv;  ///< work arrived / drain finished
    std::deque<Work> queue RBS_GUARDED_BY(mutex);
    std::size_t in_flight RBS_GUARDED_BY(mutex) = 0;
    bool stopping RBS_GUARDED_BY(mutex) = false;  ///< claim no further items
  } state;

  // Deadline kills + stop propagation. The on_stop callback takes state.mutex
  // (legal: the watchdog's lock is a leaf and is never held around the
  // callback), parks the queue, and wakes the workers; the watchdog then
  // flags every in-flight token with Reason::kStop. Workers register tokens
  // while holding state.mutex, so a claim either completes before on_stop
  // runs (token watched, hence drained) or observes `stopping` and declines.
  DeadlineWatchdog watchdog({options_.soft_deadline_s, options_.stop,
                             [&state] {
                               const LockGuard lock(state.mutex);
                               state.stopping = true;
                               state.work_cv.notify_all();
                             },
                             std::chrono::milliseconds(15)});

  // Must only be called with state.mutex held (appends stay ordered and the
  // report field is race-free; the JournalWriter also takes its own lock).
  const auto journal_append = [this, &report](const JournalRecord& record) {
    if (options_.journal == nullptr) return;
    const Status status = options_.journal->append(record);
    if (!status && report.journal_error.empty()) report.journal_error = status.message();
  };

  // ---- seed the queue, installing journaled verdicts for resume ------------
  {
    std::vector<std::uint32_t> failed_attempts(count, 0);
    std::vector<const JournalRecord*> final_verdict(count, nullptr);
    std::vector<const JournalRecord*> last_failure(count, nullptr);
    if (resume != nullptr) {
      for (const JournalRecord& record : resume->records) {
        if (record.index >= count) continue;  // header mismatch is caller-checked
        const auto i = static_cast<std::size_t>(record.index);
        if (record.kind == JournalRecord::Kind::kFailed) {
          ++failed_attempts[i];
          last_failure[i] = &record;
        } else {
          final_verdict[i] = &record;
        }
      }
    }
    // Workers do not exist yet, but the queue is guarded state: hold the
    // (uncontended) lock so the annotation holds by construction.
    const LockGuard lock(state.mutex);
    for (std::size_t i = 0; i < count; ++i) {
      ItemOutcome& out = report.items[i];
      report.retried += failed_attempts[i];
      if (final_verdict[i] != nullptr) {
        const JournalRecord& verdict = *final_verdict[i];
        out.attempts = std::max(verdict.attempt, failed_attempts[i]);
        out.payload = verdict.payload;
        if (verdict.kind == JournalRecord::Kind::kOk) {
          out.state = ItemOutcome::State::kOk;
          ++report.completed;
        } else {
          out.state = ItemOutcome::State::kQuarantined;
        }
      } else if (failed_attempts[i] >= max_attempts) {
        // Killed after the last failed attempt was journaled but before the
        // quarantine verdict landed: finish the bookkeeping now.
        out.state = ItemOutcome::State::kQuarantined;
        out.attempts = failed_attempts[i];
        out.payload = last_failure[i] != nullptr ? last_failure[i]->payload
                                                 : "retries exhausted in a previous run";
        journal_append({static_cast<std::uint64_t>(i), failed_attempts[i],
                        JournalRecord::Kind::kQuarantined, out.payload});
      } else {
        state.queue.push_back({i, failed_attempts[i] + 1});
      }
    }
  }

  // ---- worker loop ---------------------------------------------------------
  const auto worker = [&] {
    UniqueLock lock(state.mutex);
    for (;;) {
      while (!(state.stopping || !state.queue.empty() || state.in_flight == 0))
        state.work_cv.wait(lock);
      if (state.stopping || state.queue.empty()) return;

      const Work work = state.queue.front();
      state.queue.pop_front();
      auto token = std::make_shared<CancelToken>();
      ++state.in_flight;
      const std::uint64_t watch_id = watchdog.watch(token);
      lock.unlock();

      enum class Result : std::uint8_t { kOk, kCancelled, kError };
      Result result = Result::kOk;
      std::string payload;
      try {
        Rng rng(item_seed(seed, work.index));
        payload = fn(work.index, rng, *token);
      } catch (const CampaignCancelled&) {
        result = Result::kCancelled;
      } catch (const std::exception& e) {
        result = Result::kError;
        payload = e.what();
      } catch (...) {
        result = Result::kError;
        payload = "unknown exception";
      }

      lock.lock();
      watchdog.unwatch(watch_id);
      --state.in_flight;
      const CancelToken::Reason reason = token->reason();
      ItemOutcome& out = report.items[work.index];
      out.attempts = work.attempt;

      if (result == Result::kOk) {
        // A finished item is a finished item, even if the deadline or a stop
        // flagged it meanwhile -- the result is deterministic in the seed.
        out.state = ItemOutcome::State::kOk;
        out.payload = std::move(payload);
        ++report.completed;
        journal_append({static_cast<std::uint64_t>(work.index), work.attempt,
                        JournalRecord::Kind::kOk, out.payload});
      } else if (result == Result::kCancelled && reason == CancelToken::Reason::kStop) {
        // Drained by a stop request: stays kPending, reruns on --resume.
        out.attempts = work.attempt - 1;
      } else {
        if (reason == CancelToken::Reason::kDeadline) {
          ++report.deadline_kills;
          if (result == Result::kCancelled)
            payload = "soft deadline exceeded (cancelled by watchdog)";
        } else if (result == Result::kCancelled) {
          payload = "item observed a cancellation that was never requested";
        }
        if (work.attempt < max_attempts && !state.stopping) {
          ++report.retried;
          journal_append({static_cast<std::uint64_t>(work.index), work.attempt,
                          JournalRecord::Kind::kFailed, payload});
          state.queue.push_back({work.index, work.attempt + 1});
        } else if (work.attempt < max_attempts) {
          // Stopping: journal the failure but leave the retry for --resume.
          journal_append({static_cast<std::uint64_t>(work.index), work.attempt,
                          JournalRecord::Kind::kFailed, payload});
        } else {
          out.state = ItemOutcome::State::kQuarantined;
          out.payload = std::move(payload);
          journal_append({static_cast<std::uint64_t>(work.index), work.attempt,
                          JournalRecord::Kind::kQuarantined, out.payload});
        }
      }
      state.work_cv.notify_all();
    }
  };

  const unsigned n_workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, std::max<std::size_t>(1, count)));
  std::vector<std::thread> workers;
  workers.reserve(n_workers);
  for (unsigned w = 0; w < n_workers; ++w) workers.emplace_back(worker);
  for (std::thread& w : workers) w.join();
  // (the watchdog thread, if any, is joined by its destructor at return)

  for (const ItemOutcome& out : report.items)
    if (out.state == ItemOutcome::State::kPending) report.interrupted = true;
  for (std::size_t i = 0; i < count; ++i) {
    if (report.items[i].state != ItemOutcome::State::kQuarantined) continue;
    report.quarantined.push_back(i);
    report.errors.push_back(report.items[i].payload);
  }
  return report;
}

}  // namespace rbs::campaign
