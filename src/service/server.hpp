// Analysis-as-a-service: a criticality-aware, overload-tolerant server over
// the Analyzer facade.
//
// Requests carry the task-model's own criticality levels, and the server
// treats them exactly as EDF-VD treats tasks:
//
//   * nominal load (ServiceMode::kLo): every request is served with a
//     full-exactness analysis;
//   * overload (ServiceMode::kHi, entered when the backlog crosses the
//     admission threshold): LO requests are shed with Status::overloaded,
//     HI requests are served under AnalysisLimits::degraded() with the
//     report's exactness flags marking the reduced service;
//   * the mode switches back once the backlog drains (hysteresis), the
//     service-layer Delta_R.
//
// Mechanically the server is a bounded MPMC queue feeding a campaign
// ThreadPool, with three pieces of the fault-tolerance stack reused as-is:
//
//   * campaign::DeadlineWatchdog gives every request a soft wall-clock
//     deadline that starts at ADMISSION, so queue wait counts against it;
//     an expired request completes with a typed deadline error instead of
//     occupying a worker forever;
//   * attempts that throw are retried with capped deterministic exponential
//     backoff (max_attempts, retry_backoff_s), then fail the request;
//   * results flow through the ResultCache: content-hashed, single-flight
//     (a burst of identical requests costs one analysis), and -- with a WAL
//     configured -- byte-identically warm-started after a crash.
//
// SIGINT/SIGTERM (via SupervisorOptions-style `stop` flag) drains the
// server: no new admissions, queued-but-unserved requests complete with a
// typed stop error, in-flight tokens are flagged kStop. Callers (see
// tools/service_load.cpp) then exit with campaign::kExitResumable.
//
// Every counter in ServiceStats depends only on the request trace and the
// configuration, never on timing, so fixed traces produce byte-identical
// stats rows (asserted by tests/service/service_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "core/analysis.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "support/status.hpp"

namespace rbs::service {

struct ServerOptions {
  unsigned workers = 0;  ///< 0 = hardware concurrency
  /// Bounded intake queue. At capacity, LO submits are shed immediately and
  /// HI submits BLOCK for space -- overload may slow HI traffic down but
  /// never drops it.
  std::size_t queue_capacity = 256;
  /// Per-request soft deadline (admission to completion, queue wait
  /// included); 0 disables. Cooperative: checked at attempt boundaries.
  double soft_deadline_s = 0.0;
  std::uint32_t max_attempts = 1;  ///< attempts per request (>= 1)
  /// Base of the deterministic exponential backoff between retry attempts:
  /// attempt k sleeps retry_backoff_s * 2^(k-1). 0 retries immediately.
  double retry_backoff_s = 0.0;
  AdmissionOptions admission;
  ResultCache::Options cache;
  /// External stop request (campaign::install_stop_handlers()); may be null.
  const std::atomic<bool>* stop = nullptr;
  /// Start with processing paused; submit() still queues (and admission
  /// still decides), workers wait for start(). Lets tests feed a whole
  /// arrival trace deterministically before the first dequeue.
  bool start_paused = false;
  /// Test-only fault injection, called before every attempt's analysis; a
  /// throw counts as that attempt failing. Must be thread-safe.
  std::function<void(const AnalysisRequest&, std::uint32_t attempt)> fault_hook;
};

/// What the server did with one request.
struct Response {
  std::uint64_t id = 0;
  Status status = Status::ok();
  AnalysisReport report;       ///< valid iff status.is_ok()
  std::string serialized;      ///< serialize_report(report) iff status.is_ok()
  bool degraded = false;       ///< served under AnalysisLimits::degraded()
  bool cache_hit = false;      ///< served from the cache (incl. coalesced)
  std::uint32_t attempts = 0;  ///< analysis attempts consumed (0 on shed/hit)
};

/// Deterministic service counters. The invariant the soak test asserts:
/// completed + failed + shed_lo + deadline_expired + stopped == submitted
/// after a drain.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed_lo = 0;       ///< LO requests refused under overload
  std::uint64_t completed = 0;     ///< ok responses (computed or cached)
  std::uint64_t failed = 0;        ///< attempts exhausted / analysis error
  std::uint64_t stopped = 0;       ///< drained unserved by a stop request
  std::uint64_t degraded = 0;      ///< responses served under degraded limits
  std::uint64_t retried = 0;       ///< failed attempts that were retried
  std::uint64_t deadline_expired = 0;
  std::uint64_t cache_hits = 0;    ///< direct hits
  std::uint64_t coalesced = 0;     ///< single-flight waiters
  std::uint64_t cache_misses = 0;  ///< analyses actually run
  std::uint64_t mode_switches_to_hi = 0;
  std::uint64_t mode_switches_to_lo = 0;
  ServiceMode mode = ServiceMode::kLo;  ///< mode at the time of the snapshot

  [[nodiscard]] static std::string csv_header();
  [[nodiscard]] std::string csv_row() const;
};

class AnalysisServer {
 public:
  /// Opens the cache (and its WAL) and starts the worker pool.
  [[nodiscard]] static Expected<AnalysisServer> open(ServerOptions options);

  AnalysisServer(AnalysisServer&&) noexcept;
  AnalysisServer& operator=(AnalysisServer&&) noexcept;
  /// Drains in-flight work, fails queued requests with a stop verdict,
  /// joins the workers.
  ~AnalysisServer();

  /// Submits one request. The future is resolved immediately on shed
  /// (Status::overloaded) and asynchronously otherwise. Blocks only when a
  /// HI request meets a full queue (see ServerOptions::queue_capacity).
  [[nodiscard]] std::future<Response> submit(std::uint64_t id, AnalysisRequest request);

  /// Releases the workers of a start_paused server. Idempotent.
  void start();

  /// Blocks until the queue is empty and no request is being served.
  void drain();

  [[nodiscard]] ServiceStats stats() const;

  /// Mode right now (stats().mode, without copying the rest).
  [[nodiscard]] ServiceMode mode() const;

 private:
  struct Impl;
  explicit AnalysisServer(std::unique_ptr<Impl> impl);
  void close();  ///< stop + drain + join; no-op when moved-from
  std::unique_ptr<Impl> impl_;
};

}  // namespace rbs::service
