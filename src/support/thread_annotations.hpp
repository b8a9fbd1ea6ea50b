// Compiler-checked lock discipline for the concurrent campaign layer.
//
// Two halves, checked twice:
//
//   * RBS_* annotation macros that lower to Clang `-Wthread-safety`
//     attributes (capability analysis) under Clang and vanish elsewhere.
//     A clang build compiles the annotated sources with
//     `-Werror=thread-safety`, so "member touched without its mutex" is a
//     build break, not a review comment.
//   * The same annotations are understood by the project's own analyzer
//     (tools/rbs_lint, rules `lock-discipline` / `raii-guard`), so the
//     invariants stay machine-checked on every compiler, gcc included.
//
// Because libstdc++'s std::mutex carries no capability attributes, Clang
// cannot check raw standard types; this header therefore also provides thin
// annotated wrappers -- rbs::Mutex, rbs::LockGuard, rbs::UniqueLock,
// rbs::CondVar -- that concurrent code uses instead of the std:: spellings.
// The wrappers add no state beyond the std primitive and inline away.
//
// Annotation contract (docs/api.md has the full prose version):
//
//   RBS_GUARDED_BY(m)   data member: read/written only while `m` is held
//   RBS_REQUIRES(m)     function: caller must hold `m` before calling
//   RBS_ACQUIRE(m)      function: acquires `m` and returns holding it
//   RBS_RELEASE(m)      function: expects `m` held, returns having released
//   RBS_EXCLUDES(m)     function: caller must NOT hold `m` (self-deadlock)
//   RBS_CAPABILITY(x)   type: is a lockable capability (mutex wrappers)
//   RBS_SCOPED_CAPABILITY type: RAII object acquiring in ctor, releasing
//                         in dtor (guard wrappers)
//   RBS_NO_THREAD_SAFETY_ANALYSIS  escape hatch: body is not analyzed
//                         (move operations of lock-owning types; document
//                         every use)
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define RBS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define RBS_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

#define RBS_CAPABILITY(x) RBS_THREAD_ANNOTATION_(capability(x))
#define RBS_SCOPED_CAPABILITY RBS_THREAD_ANNOTATION_(scoped_lockable)
#define RBS_GUARDED_BY(x) RBS_THREAD_ANNOTATION_(guarded_by(x))
#define RBS_PT_GUARDED_BY(x) RBS_THREAD_ANNOTATION_(pt_guarded_by(x))
#define RBS_REQUIRES(...) RBS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define RBS_ACQUIRE(...) RBS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define RBS_RELEASE(...) RBS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RBS_TRY_ACQUIRE(...) RBS_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define RBS_EXCLUDES(...) RBS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define RBS_RETURN_CAPABILITY(x) RBS_THREAD_ANNOTATION_(lock_returned(x))
#define RBS_NO_THREAD_SAFETY_ANALYSIS RBS_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace rbs {

/// std::mutex with capability attributes. Direct lock()/unlock() is reserved
/// for the RAII wrappers below (rbs_lint rule `raii-guard` enforces that);
/// everything else takes a LockGuard or UniqueLock.
class RBS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RBS_ACQUIRE() { m_.lock(); }                    // rbs-lint: allow(raii-guard)
  void unlock() RBS_RELEASE() { m_.unlock(); }                // rbs-lint: allow(raii-guard)

 private:
  friend class CondVar;
  friend class UniqueLock;
  std::mutex m_;
};

/// std::lock_guard over rbs::Mutex: acquires for exactly one scope.
class RBS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) RBS_ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }  // rbs-lint: allow(raii-guard)
  ~LockGuard() RBS_RELEASE() { mutex_.unlock(); }  // rbs-lint: allow(raii-guard)
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// std::unique_lock over rbs::Mutex: a scoped acquisition that may be
/// dropped and re-taken mid-scope (worker loops releasing around the job)
/// and handed to CondVar::wait*.
class RBS_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) RBS_ACQUIRE(mutex) : lock_(mutex.m_) {}
  ~UniqueLock() RBS_RELEASE() {}
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() RBS_ACQUIRE() { lock_.lock(); }      // rbs-lint: allow(raii-guard)
  void unlock() RBS_RELEASE() { lock_.unlock(); }  // rbs-lint: allow(raii-guard)

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable over UniqueLock. Prefer the predicate-free wait
/// inside an explicit `while (!pred)` loop: Clang then analyzes the predicate
/// in the enclosing function, where the capability is visibly held (a lambda
/// predicate is analyzed as a separate, unannotated function and warns).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) { cv_.wait(lock.lock_); }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lock, const std::chrono::duration<Rep, Period>& d) {
    return cv_.wait_for(lock.lock_, d);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rbs
