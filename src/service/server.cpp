#include "service/server.hpp"

#include <chrono>
#include <deque>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "campaign/pool.hpp"
#include "campaign/supervisor.hpp"
#include "support/thread_annotations.hpp"

namespace rbs::service {

std::string ServiceStats::csv_header() {
  return "submitted,accepted,shed_lo,completed,failed,stopped,degraded,retried,"
         "deadline_expired,cache_hits,coalesced,cache_misses,"
         "mode_switches_to_hi,mode_switches_to_lo,mode";
}

std::string ServiceStats::csv_row() const {
  std::ostringstream row;
  row << submitted << ',' << accepted << ',' << shed_lo << ',' << completed << ',' << failed
      << ',' << stopped << ',' << degraded << ',' << retried << ',' << deadline_expired << ','
      << cache_hits << ',' << coalesced << ',' << cache_misses << ',' << mode_switches_to_hi
      << ',' << mode_switches_to_lo << ',' << to_string(mode);
  return row.str();
}

struct AnalysisServer::Impl {
  ServerOptions options;
  AdmissionController admission;
  ResultCache cache;
  Analyzer analyzer;

  Mutex mutex;
  CondVar work_cv;   ///< work arrived / unpaused / stopping
  CondVar space_cv;  ///< a queue slot freed (HI submitters blocked on a full queue)
  CondVar idle_cv;   ///< queue drained and nothing in flight

  struct Pending {
    std::uint64_t id = 0;
    AnalysisRequest request;
    bool degraded = false;
    std::shared_ptr<campaign::CancelToken> token;
    std::uint64_t watch_id = 0;
    std::promise<Response> promise;
  };
  std::deque<Pending> queue RBS_GUARDED_BY(mutex);
  std::size_t in_flight RBS_GUARDED_BY(mutex) = 0;
  bool paused RBS_GUARDED_BY(mutex) = false;
  bool stopping RBS_GUARDED_BY(mutex) = false;
  ServiceStats stat RBS_GUARDED_BY(mutex);  ///< local counters only; see stats()

  // Declared after the guarded state and before the pool: destroyed after
  // the workers are joined (they unwatch through it), while its on_stop
  // callback may still take `mutex` safely during the drain window.
  campaign::DeadlineWatchdog watchdog;
  campaign::ThreadPool pool;  ///< declared LAST: joined first in ~Impl

  Impl(ServerOptions opts, ResultCache opened_cache, unsigned workers)
      : options(std::move(opts)),
        admission(options.admission),
        cache(std::move(opened_cache)),
        paused(options.start_paused),  // before any worker thread exists
        watchdog({options.soft_deadline_s, options.stop,
                  [this] { on_stop(); },
                  std::chrono::milliseconds(15)}),
        pool(workers) {}

  /// Resolves every queued-but-unserved request with the typed stop verdict.
  void fail_queue(const char* why) RBS_REQUIRES(mutex) {
    for (Pending& pending : queue) {
      watchdog.unwatch(pending.watch_id);
      Response response;
      response.id = pending.id;
      response.status = Status::error(why);
      ++stat.stopped;
      pending.promise.set_value(std::move(response));
    }
    queue.clear();
  }

  /// Stop-request path (signal via the watchdog, or destruction): park the
  /// queue, wake everyone. In-flight tokens are cancelled by the caller.
  void on_stop() RBS_EXCLUDES(mutex) {
    {
      const LockGuard lock(mutex);
      if (stopping) return;
      stopping = true;
      fail_queue("server stopping: request drained unserved (resubmit after restart)");
    }
    work_cv.notify_all();
    space_cv.notify_all();
    idle_cv.notify_all();
  }

  /// One request, served outside the server lock. Applies degradation,
  /// consults the cache (single-flight), runs capped retries with
  /// deterministic exponential backoff, honours the cancel token at attempt
  /// boundaries.
  Response serve(Pending& pending) RBS_EXCLUDES(mutex) {
    Response response;
    response.id = pending.id;
    response.degraded = pending.degraded;

    AnalysisRequest request = pending.request;
    if (pending.degraded) request.limits = AnalysisLimits::degraded();
    const std::string key = cache_key(request);

    const std::uint32_t max_attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
    for (;;) {
      if (pending.token != nullptr && pending.token->cancelled()) {
        response.status = cancel_status(*pending.token);
        return response;
      }
      const ResultCache::Lookup lookup = cache.lookup_or_begin(key);
      if (lookup.hit) {
        Expected<AnalysisReport> parsed = parse_report(lookup.value);
        if (parsed.is_ok()) {
          response.report = std::move(parsed).value();
          response.serialized = lookup.value;
          response.cache_hit = true;
          return response;
        }
        // A cache entry that no longer parses is treated as absent: fall
        // through to computing (and republishing) it.
      } else if (!lookup.leader) {
        continue;  // woken without a value: re-run the lookup
      }

      // Leader (or unparseable-hit repair): compute with retries.
      std::string last_error = "analysis failed";
      for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
        if (pending.token != nullptr && pending.token->cancelled()) {
          if (lookup.leader) cache.abandon(key);
          response.status = cancel_status(*pending.token);
          response.attempts = attempt - 1;
          return response;
        }
        response.attempts = attempt;
        try {
          if (options.fault_hook) options.fault_hook(request, attempt);
          Expected<AnalysisReport> result = analyzer.analyze(request);
          if (!result.is_ok()) {
            // A rejected request (bad speed, degenerate limits) is
            // deterministic: retrying cannot help.
            if (lookup.leader) cache.abandon(key);
            response.status = result.status();
            return response;
          }
          response.report = std::move(result).value();
          response.serialized = serialize_report(response.report);
          // The leader publishes its result, and a repair overwrites the
          // unparseable entry. A WAL append failure degrades the warm start,
          // never this response: publish() keeps serving the entry from
          // memory.
          const Status wal = cache.publish(key, response.serialized);
          static_cast<void>(wal.is_ok());
          return response;
        } catch (const std::exception& e) {
          last_error = e.what();
        } catch (...) {
          last_error = "unknown exception during analysis";
        }
        if (attempt < max_attempts && options.retry_backoff_s > 0.0) {
          const double factor = static_cast<double>(std::uint64_t{1} << (attempt - 1));
          std::this_thread::sleep_for(
              std::chrono::duration<double>(options.retry_backoff_s * factor));
        }
      }
      if (lookup.leader) cache.abandon(key);
      response.status = Status::error("request failed after " +
                                      std::to_string(max_attempts) +
                                      " attempt(s): " + last_error);
      return response;
    }
  }

  static Status cancel_status(const campaign::CancelToken& token) {
    if (token.reason() == campaign::CancelToken::Reason::kDeadline)
      return Status::error("soft deadline expired before the request was served");
    return Status::error("server stopping: request drained unserved (resubmit after restart)");
  }

  void worker_loop() RBS_EXCLUDES(mutex) {
    UniqueLock lock(mutex);
    for (;;) {
      while (!stopping && (paused || queue.empty())) work_cv.wait(lock);
      if (stopping) return;

      Pending pending = std::move(queue.front());
      queue.pop_front();
      ++in_flight;
      const std::size_t depth = queue.size();
      lock.unlock();
      space_cv.notify_one();
      // Mode recovery is driven by observed drain, not time: once the
      // backlog recedes to the low-water mark the next dequeue flips HI->LO.
      admission.observe_depth(depth);

      Response response = serve(pending);

      lock.lock();
      watchdog.unwatch(pending.watch_id);
      --in_flight;
      if (response.status.is_ok()) {
        ++stat.completed;
        if (response.degraded) ++stat.degraded;
      } else if (pending.token != nullptr &&
                 pending.token->reason() == campaign::CancelToken::Reason::kDeadline) {
        ++stat.deadline_expired;
      } else if (pending.token != nullptr &&
                 pending.token->reason() == campaign::CancelToken::Reason::kStop) {
        ++stat.stopped;
      } else {
        ++stat.failed;
      }
      if (response.attempts > 1) stat.retried += response.attempts - 1;
      const bool idle = queue.empty() && in_flight == 0;
      lock.unlock();

      pending.promise.set_value(std::move(response));
      if (idle) idle_cv.notify_all();
      lock.lock();
    }
  }
};

AnalysisServer::AnalysisServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
AnalysisServer::AnalysisServer(AnalysisServer&&) noexcept = default;

AnalysisServer& AnalysisServer::operator=(AnalysisServer&& other) noexcept {
  if (this != &other) {
    close();  // the current server must be stopped BEFORE its Impl dies
    impl_ = std::move(other.impl_);
  }
  return *this;
}

void AnalysisServer::close() {
  if (impl_ == nullptr) return;  // moved-from
  impl_->on_stop();
  impl_->watchdog.cancel_all(campaign::CancelToken::Reason::kStop);
  // ~Impl joins the pool first (workers observe `stopping`), then the
  // watchdog thread, then releases the rest.
  impl_.reset();
}

AnalysisServer::~AnalysisServer() { close(); }

Expected<AnalysisServer> AnalysisServer::open(ServerOptions options) {
  unsigned workers = options.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  if (options.queue_capacity == 0) options.queue_capacity = 1;

  Expected<ResultCache> cache = ResultCache::open(options.cache);
  if (!cache.is_ok()) return cache.status();

  auto impl = std::make_unique<Impl>(std::move(options), std::move(cache).value(), workers);
  Impl* raw = impl.get();
  for (unsigned w = 0; w < workers; ++w)
    raw->pool.submit([raw] { raw->worker_loop(); });
  return AnalysisServer(std::move(impl));
}

std::future<Response> AnalysisServer::submit(std::uint64_t id, AnalysisRequest request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  Impl& s = *impl_;

  UniqueLock lock(s.mutex);
  ++s.stat.submitted;
  for (;;) {
    if (s.stopping) {
      ++s.stat.stopped;
      Response response;
      response.id = id;
      response.status =
          Status::error("server stopping: request refused (resubmit after restart)");
      promise.set_value(std::move(response));
      return future;
    }
    const AdmissionDecision decision = s.admission.admit(request.priority, s.queue.size());
    if (!decision.admit) {
      ++s.stat.shed_lo;
      Response response;
      response.id = id;
      response.status = Status::overloaded(
          "server in HI service mode: LO request shed to protect HI traffic");
      promise.set_value(std::move(response));
      return future;
    }
    if (s.queue.size() < s.options.queue_capacity) {
      Impl::Pending pending;
      pending.id = id;
      pending.request = std::move(request);
      pending.degraded = decision.degrade;
      pending.token = std::make_shared<campaign::CancelToken>();
      pending.watch_id = s.watchdog.watch(pending.token);
      pending.promise = std::move(promise);
      s.queue.push_back(std::move(pending));
      ++s.stat.accepted;
      s.work_cv.notify_one();
      return future;
    }
    if (request.priority == Criticality::LO) {
      // Full queue: LO is shed immediately. HI (below) BLOCKS for a slot --
      // overload slows HI traffic down but never drops it.
      ++s.stat.shed_lo;
      Response response;
      response.id = id;
      response.status =
          Status::overloaded("intake queue full: LO request shed to protect HI traffic");
      promise.set_value(std::move(response));
      return future;
    }
    while (s.queue.size() >= s.options.queue_capacity && !s.stopping) s.space_cv.wait(lock);
  }
}

void AnalysisServer::start() {
  {
    const LockGuard lock(impl_->mutex);
    impl_->paused = false;
  }
  impl_->work_cv.notify_all();
}

void AnalysisServer::drain() {
  Impl& s = *impl_;
  UniqueLock lock(s.mutex);
  while (!s.stopping && !(s.queue.empty() && s.in_flight == 0)) s.idle_cv.wait(lock);
}

ServiceStats AnalysisServer::stats() const {
  Impl& s = *impl_;
  ServiceStats snapshot;
  {
    const LockGuard lock(s.mutex);
    snapshot = s.stat;
  }
  const ResultCache::Stats cache = s.cache.stats();
  snapshot.cache_hits = cache.hits;
  snapshot.coalesced = cache.coalesced;
  snapshot.cache_misses = cache.misses;
  snapshot.mode_switches_to_hi = s.admission.switches_to_hi();
  snapshot.mode_switches_to_lo = s.admission.switches_to_lo();
  snapshot.mode = s.admission.mode();
  return snapshot;
}

ServiceMode AnalysisServer::mode() const { return impl_->admission.mode(); }

}  // namespace rbs::service
