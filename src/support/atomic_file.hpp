// Crash-safe file writing primitives.
//
// `AtomicFile` implements the write-to-temporary / fsync / rename protocol:
// the destination path either keeps its previous content (or stays absent) or
// receives the complete new content -- a crash at any point never leaves a
// torn half-file that later tooling parses as truth. `fsync_stream` exposes
// the durability half alone for append-only files (the campaign journal)
// that must survive a kill after every record.
#pragma once

#include <cstdio>
#include <string>

namespace rbs {

/// Flushes stdio buffers and forces `file`'s data to stable storage.
/// Returns false when either step fails (the caller's data may be lost on
/// power failure, though it is still visible to other processes).
bool fsync_stream(std::FILE* file);

/// Writes `<path>.tmp` and atomically renames it over `path` on commit().
/// The destructor commits; commit failures are observable through ok().
/// Move-only.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  ~AtomicFile();

  AtomicFile(AtomicFile&& other) noexcept;
  AtomicFile& operator=(AtomicFile&& other) noexcept;
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// True while the temporary is open and every write so far succeeded
  /// (after commit(): true iff the rename landed).
  bool ok() const { return ok_; }

  /// Appends raw bytes to the temporary.
  bool write(const std::string& data);

  /// Flushes, fsyncs, closes, and renames the temporary over the final
  /// path. Idempotent; returns the final ok() verdict.
  bool commit();

  const std::string& path() const { return path_; }

 private:
  void close_tmp();

  std::string path_;
  std::string tmp_path_;
  std::FILE* out_ = nullptr;
  bool ok_ = false;
  bool committed_ = false;
};

}  // namespace rbs
