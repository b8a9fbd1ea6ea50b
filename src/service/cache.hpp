// Content-keyed result cache with single-flight coalescing and a crash-safe
// warm-start WAL.
//
// The analysis is a pure function of (task set, speeds, parts, limits), so
// its results are cacheable under a *content* key: the canonical task-set
// serialization of support/taskset_io.hpp joined with the canonically
// rendered knobs. Two requests that differ only in task naming, declaration
// order, or sub-tolerance rounding noise of their speed therefore share one
// entry -- and one computation:
//
//   * lookup_or_begin() returns a hit, or elects the caller the *leader* for
//     the key; concurrent callers of the same key block until the leader
//     publishes (single-flight), so a burst of identical requests costs one
//     analysis instead of N;
//   * entries are bounded by an LRU list (`capacity`);
//   * with a journal path configured, every published entry is appended to a
//     campaign/journal WAL (CRC-guarded, fsynced, torn-tail tolerant). A
//     server killed mid-serve reopens the journal on restart and warm-starts
//     the cache: previously served results come back byte-identical, which
//     tests/recovery/service_recovery_test.cpp asserts literally.
//
// Values are stored as *serialized* report strings (serialize_report below),
// not parsed structs: the WAL replay path and the live path then share one
// representation and "byte-identical across a crash" is structural.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/analysis.hpp"
#include "support/status.hpp"

namespace rbs::service {

/// Canonical single-line rendering of an AnalysisReport: fixed field order,
/// %.17g doubles (exact round trip), comma separated, no whitespace.
[[nodiscard]] std::string serialize_report(const AnalysisReport& report);

/// Inverse of serialize_report; errors on malformed input.
[[nodiscard]] Expected<AnalysisReport> parse_report(const std::string& line);

/// The content key a request caches under: canonical task set + canonical
/// speeds + parts + limits, then the transition latency when it is non-zero.
/// Requests with equal keys have equal reports.
[[nodiscard]] std::string cache_key(const AnalysisRequest& request);

class ResultCache {
 public:
  struct Options {
    std::size_t capacity = 1024;  ///< LRU bound (>= 1)
    /// WAL path; empty = in-memory only. The journal is created if missing
    /// or unreadable, resumed (with torn-tail truncation) otherwise.
    std::string journal_path;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< lookups that elected a leader
    std::uint64_t coalesced = 0;   ///< waiters served by another's publish
    std::uint64_t evictions = 0;
    std::uint64_t warm_entries = 0;  ///< entries replayed from the WAL at open
    std::size_t entries = 0;
  };

  /// What one lookup_or_begin() produced. Exactly one of `hit`/`leader` is
  /// true; a leader MUST later call publish() or abandon() for the key, or
  /// waiters block until destruction.
  struct Lookup {
    bool hit = false;
    bool leader = false;
    std::string value;  ///< the serialized report when hit
  };

  /// Opens the cache, replaying (and, when oversized, compacting) the WAL.
  [[nodiscard]] static Expected<ResultCache> open(const Options& options);

  ResultCache(ResultCache&&) noexcept;
  ResultCache& operator=(ResultCache&&) noexcept;
  ~ResultCache();

  /// Returns the cached value, or blocks behind an in-flight computation of
  /// the same key, or elects the caller the leader for it.
  [[nodiscard]] Lookup lookup_or_begin(const std::string& key);

  /// Installs the value (overwriting an installed one), appends it to the
  /// WAL, wakes waiters. Called by the key's leader, or to repair an entry
  /// that no longer parses. Returns the first WAL append error (the entry is
  /// still served from memory; callers decide whether a degraded WAL is
  /// fatal).
  [[nodiscard]] Status publish(const std::string& key, const std::string& value);

  /// Leader-only: gives the key up without a value (the computation failed);
  /// one blocked waiter is promoted to leader and retries.
  void abandon(const std::string& key);

  [[nodiscard]] Stats stats() const;

 private:
  struct Impl;
  explicit ResultCache(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace rbs::service
