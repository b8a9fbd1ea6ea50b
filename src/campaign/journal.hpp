// Append-only, CRC-guarded campaign result journal (JSONL).
//
// One file records one campaign: a header line naming the workload (seed,
// item count, a free-form tag) followed by one line per finished item
// attempt. Every line carries a CRC-32 of its canonical payload and is
// flushed + fsynced as it is appended, so a process killed at any byte
// offset leaves a journal that load_journal() can still read:
//
//   * the header is written via the atomic tmp/fsync/rename protocol -- the
//     journal file either exists with a valid header or not at all;
//   * a torn tail (the partially written last line of a kill mid-append) is
//     detected by CRC/parse failure and truncated away on recovery;
//   * corruption anywhere *before* the tail (a flipped byte, a spliced
//     record) fails the CRC and is rejected with a descriptive error --
//     a journal is never silently mis-parsed.
//
// Record semantics follow the supervisor's retry policy: an item may appear
// several times (failed attempts, then a success or a quarantine verdict);
// the reader folds them into per-item outcomes for crash-safe resume.
// Replays are order-free because every item draws from its own seed stream
// (campaign/supervisor.hpp), so a resumed campaign reproduces the
// uninterrupted run byte for byte. open_journal() is the one place the
// `--checkpoint` / `--resume` flags turn into a writer plus the journal to
// resume from.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "support/status.hpp"
#include "support/thread_annotations.hpp"

namespace rbs::campaign {

/// Identifies the campaign a journal belongs to. Resume refuses to mix
/// journals across workloads: seed, item count, and tag must all match.
struct JournalHeader {
  std::uint64_t seed = 0;   ///< campaign master seed
  std::uint64_t items = 0;  ///< total item count of the campaign
  std::string tag;          ///< workload signature (binary name + knobs)
};

/// One finished item attempt.
struct JournalRecord {
  enum class Kind : std::uint8_t {
    kOk,           ///< attempt succeeded; payload is the result row
    kFailed,       ///< attempt failed but will be retried; payload is the error
    kQuarantined,  ///< retries exhausted; payload is the last error
  };
  std::uint64_t index = 0;  ///< campaign item index in [0, header.items)
  std::uint32_t attempt = 0;  ///< 1-based attempt number
  Kind kind = Kind::kOk;
  std::string payload;
};

/// A journal read back from disk, after recovery.
struct LoadedJournal {
  JournalHeader header;
  std::vector<JournalRecord> records;  ///< file order, torn tail removed
  std::uint64_t valid_bytes = 0;  ///< prefix ending after the last good line
  std::uint64_t dropped_tail_bytes = 0;  ///< truncated by torn-tail recovery
  std::size_t duplicate_records = 0;  ///< benign exact duplicates folded away

  /// Per-item fold: the final verdict for `index`, if any. Conflicting
  /// verdicts were already rejected by load_journal().
  [[nodiscard]] const JournalRecord* final_record(std::uint64_t index) const;
  /// Failed attempts recorded for `index` (for resuming the retry budget).
  [[nodiscard]] std::uint32_t failed_attempts(std::uint64_t index) const;
};

/// Reads and verifies `path`. Recovers from a torn tail (the incomplete
/// last line of an interrupted append) by dropping it; any other corruption
/// -- bad header, CRC mismatch before the tail, out-of-range index,
/// conflicting duplicate verdicts -- returns a descriptive error.
[[nodiscard]] Expected<LoadedJournal> load_journal(const std::string& path);

/// Appends records durably (one fsync per record). Internally synchronized:
/// append() may be called from any worker thread; the stream handle is
/// RBS_GUARDED_BY an internal mutex, so lock discipline is checked by Clang
/// -Wthread-safety and rbs_lint. Moving a writer concurrently with appends
/// is undefined (moves transfer the handle without synchronization and are
/// excluded from analysis).
class JournalWriter {
 public:
  /// Starts a fresh journal at `path` (atomic header write; an existing
  /// journal is replaced).
  [[nodiscard]] static Expected<JournalWriter> create(const std::string& path,
                                                      const JournalHeader& header);

  /// Re-opens a loaded journal for appending, first truncating the torn
  /// tail (`loaded.valid_bytes`) so new records follow a good line.
  [[nodiscard]] static Expected<JournalWriter> resume(const std::string& path,
                                                      const LoadedJournal& loaded);

  // Moves transfer the stream handle without locking either side (callers
  // must not move a writer that other threads are appending to), so they are
  // excluded from thread-safety analysis.
  JournalWriter(JournalWriter&& other) noexcept RBS_NO_THREAD_SAFETY_ANALYSIS;
  JournalWriter& operator=(JournalWriter&& other) noexcept RBS_NO_THREAD_SAFETY_ANALYSIS;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Serializes, CRC-stamps, appends, flushes, and fsyncs one record.
  [[nodiscard]] Status append(const JournalRecord& record) RBS_EXCLUDES(mutex_);

  const std::string& path() const { return path_; }

 private:
  JournalWriter() = default;

  std::string path_;
  Mutex mutex_;
  std::FILE* out_ RBS_GUARDED_BY(mutex_) = nullptr;
};

/// A journal opened for `--checkpoint` / `--resume`.
struct OpenedJournal {
  JournalWriter writer;                 ///< where new records are appended
  std::optional<LoadedJournal> loaded;  ///< what to resume from, if anything
  /// What the user should hear about a resume that did not simply continue:
  /// no journal was found (a fresh one was started) or a torn tail was
  /// dropped. Empty otherwise.
  std::string note;
};

/// Opens the journal at `path` for the campaign `header`. Without `resume`,
/// a fresh journal replaces whatever is there; so does `resume` when no file
/// exists at `path`. Otherwise the journal is loaded, its header must match
/// `header` (seed, item count and tag), and its torn tail is truncated before
/// appending resumes. A corrupt journal, a header mismatch or a writer that
/// cannot be opened is a descriptive error naming `path`; printing it, and
/// the note, is the caller's job.
[[nodiscard]] Expected<OpenedJournal> open_journal(const std::string& path,
                                                   const JournalHeader& header, bool resume);

/// Serialized forms (exposed for tests and the corruption corpus).
[[nodiscard]] std::string serialize_header(const JournalHeader& header);
[[nodiscard]] std::string serialize_record(const JournalRecord& record);

}  // namespace rbs::campaign
