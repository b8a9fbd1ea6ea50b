// Fixed-size worker pool, used by the analysis server (service/server.hpp)
// and by rbs_lint's parallel scan.
//
// Deliberately minimal: a bounded set of workers created once, a FIFO job
// queue, and a drain barrier. Callers layer deterministic work distribution
// on top; the pool itself knows nothing about RNG streams or result ordering.
//
// Lock discipline is machine-checked twice (support/thread_annotations.hpp):
// every RBS_GUARDED_BY member below is verified against `mutex_` by Clang's
// -Wthread-safety and by rbs_lint's lock-discipline rule.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace rbs::campaign {

/// A fixed-size thread pool. Jobs are plain closures; submit() never blocks
/// (the queue is unbounded), wait_idle() blocks until every submitted job has
/// finished. Thread-safe: submit() may be called from any thread, including
/// from inside a running job.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(unsigned threads);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues one job. Jobs must not throw (wrap and capture exceptions on
  /// the caller's side).
  void submit(std::function<void()> job) RBS_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and no job is executing.
  void wait_idle() RBS_EXCLUDES(mutex_);

 private:
  void worker_loop() RBS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_cv_;  ///< signalled when work arrives / on stop
  CondVar idle_cv_;  ///< signalled when the pool may be idle
  std::deque<std::function<void()>> queue_ RBS_GUARDED_BY(mutex_);
  std::size_t in_flight_ RBS_GUARDED_BY(mutex_) = 0;  ///< jobs currently executing
  bool stop_ RBS_GUARDED_BY(mutex_) = false;
};

}  // namespace rbs::campaign
