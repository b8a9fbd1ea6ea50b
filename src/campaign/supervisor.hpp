// The campaign engine: maps a per-item job over N campaign items on a set of
// worker threads, with per-item soft deadlines, capped retries, quarantine
// of poison items, cooperative cancellation, and journal-backed crash-safe
// resume.
//
// Determinism contract: the output of a campaign depends only on the
// campaign seed and the item count, never on the worker count -- `--jobs 8`
// is byte-identical to `--jobs 1`. Two mechanisms enforce this:
//
//   * every item draws from its *own* RNG stream, seeded as
//     item_seed(campaign_seed, index) -- a worker never advances another
//     item's stream, so the schedule cannot leak into the randomness;
//   * results land in the pre-sized slot `index` of CampaignReport::items,
//     so gathering order is input order regardless of completion order.
//
// A failing item never aborts the campaign; Supervisor::run returns a
// `CampaignReport` instead:
//
//   * an item that throws is retried with the SAME seed stream, up to
//     `max_attempts`; deterministic failures exhaust the budget and land in
//     the quarantine list instead of aborting the other items;
//   * a watchdog thread tracks per-item wall-clock age and cancels items
//     that outlive `soft_deadline_s` via their CancelToken. Cancellation is
//     cooperative: long-running workloads observe token.cancelled() (or call
//     token.throw_if_cancelled()) and bail with CampaignCancelled; the
//     supervisor counts a deadline kill and retries/quarantines the item.
//     Results computed by items that finish despite the flag are kept --
//     the deadline is soft, and item results depend only on the item seed;
//   * SIGINT/SIGTERM (install_stop_handlers()) request a stop: workers stop
//     claiming, in-flight items are drained (their tokens are flagged with
//     Reason::kStop so cooperative items can bail early), the journal is
//     flushed, and the report comes back `interrupted` -- the CLI layer then
//     exits with kExitResumable so wrappers know `--resume` will finish the
//     run;
//   * with a JournalWriter attached, every finished attempt is appended
//     durably; a later run resumes from the loaded journal (open_journal in
//     campaign/journal.hpp) and recomputes only what is missing. Because
//     items draw from per-item seed streams, the resumed campaign's results
//     -- and any CSV aggregated from them -- are byte-identical to an
//     uninterrupted run at any worker count.
//
// Thread-safety: Analyzer::analyze() is a pure function of its arguments
// (the core analysis has no global mutable state), so any number of workers
// may analyze distinct requests concurrently. One Supervisor runs one
// campaign at a time -- run() is not reentrant -- but items within that
// campaign execute concurrently.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.hpp"
#include "gen/rng.hpp"
#include "support/thread_annotations.hpp"

namespace rbs::campaign {

/// Exit code meaning "interrupted but checkpointed: rerun with --resume to
/// finish". 75 is BSD's EX_TEMPFAIL ("temporary failure, retry later"),
/// distinct from success (0), failure (1), and usage errors (2).
inline constexpr int kExitResumable = 75;

struct CampaignOptions {
  /// Worker threads mapping items; 1 runs the items one after another (the
  /// serial baseline), 0 asks the hardware for its core count.
  unsigned jobs = 1;
  /// Master seed every per-item RNG stream descends from.
  std::uint64_t seed = 1;
};

/// The seed of campaign item `index`: a SplitMix64 hash of (seed, index).
/// Streams of distinct items are statistically independent, and item i's
/// stream is the same no matter which worker runs it.
[[nodiscard]] std::uint64_t item_seed(std::uint64_t campaign_seed, std::uint64_t index);

/// Per-item cancellation flag, set by the watchdog (deadline) or the stop
/// path (signal). Cooperative: items poll it at convenient boundaries.
class CancelToken {
 public:
  enum class Reason : std::uint8_t { kNone, kDeadline, kStop };

  [[nodiscard]] bool cancelled() const {
    return reason_.load(std::memory_order_relaxed) != Reason::kNone;
  }
  [[nodiscard]] Reason reason() const { return reason_.load(std::memory_order_relaxed); }

  /// Throws CampaignCancelled when the token is flagged; the idiomatic
  /// checkpoint call inside long-running items.
  void throw_if_cancelled() const;

  /// First reason wins (a deadline kill is not demoted to a stop drain).
  void cancel(Reason reason) {
    Reason expected = Reason::kNone;
    reason_.compare_exchange_strong(expected, reason, std::memory_order_relaxed);
  }

 private:
  std::atomic<Reason> reason_{Reason::kNone};
};

/// Thrown by cooperative items observing their CancelToken.
struct CampaignCancelled {};

/// Reusable deadline/stop watchdog: one polling thread tracking any number of
/// registered CancelTokens by wall-clock age. Extracted from Supervisor::run
/// so every layer that hands out soft per-work-unit deadlines (the campaign
/// supervisor, the analysis server in service/server.hpp) shares one audited
/// implementation instead of growing its own polling thread.
///
///   * `watch()` registers a token with the current time; `unwatch()` removes
///     it when the work unit finishes. Tokens older than `soft_deadline_s`
///     are cancelled with Reason::kDeadline.
///   * when `stop` flips true, every watched token is cancelled with
///     Reason::kStop and `on_stop` fires exactly once -- AFTER the internal
///     lock is released, so the callback may take the caller's own mutex
///     (the watchdog's lock is a leaf: watch/unwatch may be called while
///     holding caller locks, never the reverse).
///   * with no deadline and no stop flag the watchdog is inert: no thread is
///     started and watch()/unwatch() are O(1) no-ops.
///
/// Cancellation stays cooperative and soft exactly as under the Supervisor:
/// work that completes despite a flagged token still counts as completed.
class DeadlineWatchdog {
 public:
  struct Options {
    double soft_deadline_s = 0.0;  ///< per-unit wall-clock budget; 0 disables
    /// External stop request (install_stop_handlers() or a test's own flag);
    /// polled every `poll` interval. May be null.
    const std::atomic<bool>* stop = nullptr;
    /// Fired once when `stop` is first observed, outside the internal lock.
    std::function<void()> on_stop;
    std::chrono::milliseconds poll{15};  ///< watchdog resolution
  };

  explicit DeadlineWatchdog(Options options);
  ~DeadlineWatchdog();
  DeadlineWatchdog(const DeadlineWatchdog&) = delete;
  DeadlineWatchdog& operator=(const DeadlineWatchdog&) = delete;

  /// Registers `token`, timestamped now; returns the handle for unwatch().
  /// When the watchdog is inert (`!active()`) this is a no-op returning 0.
  [[nodiscard]] std::uint64_t watch(std::shared_ptr<CancelToken> token);

  /// Deregisters a token; accepts the 0 handle (and double unwatch) quietly.
  void unwatch(std::uint64_t id);

  /// Cancels every currently watched token with `reason` (stop drains).
  void cancel_all(CancelToken::Reason reason);

  /// True when a polling thread is running (deadline or stop flag present).
  [[nodiscard]] bool active() const { return thread_.joinable(); }

 private:
  struct Watched {
    std::shared_ptr<CancelToken> token;
    std::chrono::steady_clock::time_point start;  // rbs-lint: allow(nondet)
  };

  void loop();

  Options options_;
  mutable Mutex mutex_;
  CondVar cv_;  ///< wakes the poller early on shutdown
  std::map<std::uint64_t, Watched> watched_ RBS_GUARDED_BY(mutex_);
  std::uint64_t next_id_ RBS_GUARDED_BY(mutex_) = 1;
  bool done_ RBS_GUARDED_BY(mutex_) = false;
  bool stop_fired_ RBS_GUARDED_BY(mutex_) = false;
  std::thread thread_;  ///< started last, so loop() sees initialized members
};

struct SupervisorOptions {
  CampaignOptions campaign;     ///< worker count + master seed
  double soft_deadline_s = 0.0; ///< per-item wall-clock budget; 0 disables
  std::uint32_t max_attempts = 3;  ///< attempts before quarantine (>= 1)
  JournalWriter* journal = nullptr;  ///< optional durable record sink
  /// External stop request (typically install_stop_handlers()); polled by
  /// the watchdog and at item claim time. May be null.
  const std::atomic<bool>* stop = nullptr;
};

/// Final state of one campaign item.
struct ItemOutcome {
  enum class State : std::uint8_t {
    kPending,      ///< never finished (campaign interrupted before it could)
    kOk,           ///< payload holds the result row
    kQuarantined,  ///< payload holds the last error message
  };
  State state = State::kPending;
  std::uint32_t attempts = 0;  ///< attempts consumed (including journaled ones)
  std::string payload;
};

/// What a supervised campaign produced: per-item outcomes plus the fault
/// bookkeeping.
struct CampaignReport {
  std::vector<ItemOutcome> items;       ///< input order, size = item count
  std::size_t completed = 0;            ///< items with State::kOk
  std::size_t retried = 0;              ///< failed attempts that were requeued
  std::size_t deadline_kills = 0;       ///< cancellations by the watchdog
  std::vector<std::size_t> quarantined; ///< indices with State::kQuarantined
  std::vector<std::string> errors;      ///< last error per quarantined index
  bool interrupted = false;             ///< stop requested before completion
  std::string journal_error;            ///< first journal-append failure, if any

  [[nodiscard]] bool all_completed() const { return completed == items.size(); }
};

/// One supervised item attempt: compute the result row for `index` from its
/// private RNG stream, observing `token` at convenient cancellation points.
using SupervisedFn =
    std::function<std::string(std::size_t index, Rng& rng, const CancelToken& token)>;

class Supervisor {
 public:
  explicit Supervisor(const SupervisorOptions& options);

  /// Resolved worker count (after the jobs == 0 hardware lookup).
  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Runs `fn` over [0, count), retrying and quarantining as configured.
  /// With `resume`, item verdicts already journaled are installed instead of
  /// recomputed (the caller must have validated the journal header against
  /// this campaign's seed/count/tag). Not reentrant.
  [[nodiscard]] CampaignReport run(std::size_t count, const SupervisedFn& fn,
                                   const LoadedJournal* resume = nullptr) const;

 private:
  SupervisorOptions options_;
  unsigned jobs_ = 1;
};

/// Installs SIGINT/SIGTERM handlers that set (and never clear) a process-wide
/// stop flag; returns the flag for SupervisorOptions::stop. Idempotent.
const std::atomic<bool>* install_stop_handlers();

/// True once a stop signal arrived.
[[nodiscard]] bool stop_requested();

}  // namespace rbs::campaign
