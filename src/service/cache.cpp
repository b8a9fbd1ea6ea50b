#include "service/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "campaign/journal.hpp"
#include "support/det_annotations.hpp"
#include "support/taskset_io.hpp"
#include "support/thread_annotations.hpp"

namespace rbs::service {

namespace {

/// WAL framing: one kOk record per published entry, payload =
/// key SEP value. 0x1f (ASCII unit separator) cannot occur in either half:
/// keys are canonical task-set strings (printable) and values are
/// serialize_report output; json_escape carries it through the journal as
///  losslessly.
constexpr char kKeyValueSep = '\x1f';
/// Bumped whenever the key format changes, so a WAL of unreachable keys
/// opens as foreign and starts fresh.
constexpr char kWalTag[] = "service-cache-v3";
/// items bound in the WAL header; publishes are numbered sequentially and
/// never approach it.
constexpr std::uint64_t kWalItems = std::uint64_t{1} << 62;

std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

// RBS_DET_PATH: these bytes are WAL payloads and client responses; two runs
// computing the same report must serialize to identical text (%.17g
// round-trips every double exactly).
RBS_DET_PATH std::string serialize_report(const AnalysisReport& r) {
  std::string out;
  out.reserve(192);
  const auto add = [&out](const std::string& field) {
    if (!out.empty()) out += ',';
    out += field;
  };
  add(format_double(r.s_min));
  add(r.s_min_exact ? "1" : "0");
  add(format_double(r.s_min_error_bound));
  add(std::to_string(r.s_min_argmax));
  add(format_double(r.delta_r));
  add(r.delta_r_exact ? "1" : "0");
  add(r.lo_schedulable ? "1" : "0");
  add(r.hi_schedulable ? "1" : "0");
  add(r.system_schedulable ? "1" : "0");
  add(format_double(r.speed));
  add(format_double(r.u_lo));
  add(format_double(r.u_hi));
  add(std::to_string(r.speedup_breakpoints));
  add(std::to_string(r.reset_breakpoints));
  add(std::to_string(r.fused_breakpoints));
  add(std::to_string(r.lo_breakpoints));
  return out;
}

Expected<AnalysisReport> parse_report(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (const char c : line) {
    if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(current);
  if (fields.size() != 16)
    return Status::error("report line has " + std::to_string(fields.size()) +
                         " fields, expected 16");

  const auto as_double = [&fields](std::size_t i, double& out) {
    char* end = nullptr;
    out = std::strtod(fields[i].c_str(), &end);
    return end != fields[i].c_str() && *end == '\0';
  };
  const auto as_bool = [&fields](std::size_t i, bool& out) {
    if (fields[i] != "0" && fields[i] != "1") return false;
    out = fields[i] == "1";
    return true;
  };
  const auto as_size = [&fields](std::size_t i, std::size_t& out) {
    char* end = nullptr;
    out = static_cast<std::size_t>(std::strtoull(fields[i].c_str(), &end, 10));
    return end != fields[i].c_str() && *end == '\0';
  };

  AnalysisReport r;
  char* end = nullptr;
  r.s_min_argmax = static_cast<Ticks>(std::strtoll(fields[3].c_str(), &end, 10));
  const bool argmax_ok = end != fields[3].c_str() && *end == '\0';
  if (!as_double(0, r.s_min) || !as_bool(1, r.s_min_exact) ||
      !as_double(2, r.s_min_error_bound) || !argmax_ok || !as_double(4, r.delta_r) ||
      !as_bool(5, r.delta_r_exact) || !as_bool(6, r.lo_schedulable) ||
      !as_bool(7, r.hi_schedulable) || !as_bool(8, r.system_schedulable) ||
      !as_double(9, r.speed) || !as_double(10, r.u_lo) || !as_double(11, r.u_hi) ||
      !as_size(12, r.speedup_breakpoints) || !as_size(13, r.reset_breakpoints) ||
      !as_size(14, r.fused_breakpoints) || !as_size(15, r.lo_breakpoints))
    return Status::error("malformed report field in '" + line + "'");
  return r;
}

// RBS_DET_PATH: the single-flight and warm-start contracts need equal
// requests to map to equal keys across processes and machines.
RBS_DET_PATH std::string cache_key(const AnalysisRequest& request) {
  // 0x1e (record separator) joins the sections; it cannot occur in any of
  // them. `priority` is deliberately excluded: it routes the request, it
  // never changes the report. Degradation IS part of the key (via limits),
  // so a degraded answer is never served to a full-exactness request.
  std::string key = canonical_task_set(request.set);
  key += '\x1e';
  key += canonical_double(request.speed);
  key += ';';
  key += request.parts.speedup ? '1' : '0';
  key += request.parts.reset ? '1' : '0';
  key += request.parts.lo ? '1' : '0';
  key += ';';
  key += std::to_string(request.limits.max_breakpoints);
  key += ';';
  key += canonical_double(request.limits.rel_tol);
  // Appended only when set: a zero-latency key ends at rel_tol.
  if (request.latency != 0) {
    key += ';';
    key += std::to_string(request.latency);
  }
  return key;
}

// --- the cache proper -------------------------------------------------------

struct ResultCache::Impl {
  using LruEntry = std::pair<std::string, std::string>;  ///< key, value

  Options options;
  mutable Mutex mutex;
  CondVar flight_cv;  ///< publish/abandon wakes same-key waiters

  /// Front = most recently used. `index` maps key -> list node. Ordered
  /// containers on purpose: eviction and WAL compaction walk `lru` (never the
  /// index), but keeping every structure on the WAL path free of salted
  /// bucket order is what lets rbs_det's det-unordered-iter gate hold here
  /// with zero escapes -- compacted WALs byte-compare across runs
  /// (tests/service/cache_test.cpp pins it).
  std::list<LruEntry> lru RBS_GUARDED_BY(mutex);
  std::map<std::string, std::list<LruEntry>::iterator> index RBS_GUARDED_BY(mutex);
  std::set<std::string> inflight RBS_GUARDED_BY(mutex);
  Stats stat RBS_GUARDED_BY(mutex);

  std::optional<campaign::JournalWriter> wal RBS_GUARDED_BY(mutex);
  std::uint64_t next_seq RBS_GUARDED_BY(mutex) = 0;

  /// Installs key->value at the front of the LRU, evicting beyond capacity.
  void install(const std::string& key, std::string value) RBS_REQUIRES(mutex) {
    const auto it = index.find(key);
    if (it != index.end()) {
      it->second->second = std::move(value);
      lru.splice(lru.begin(), lru, it->second);
      return;
    }
    lru.emplace_front(key, std::move(value));
    index[key] = lru.begin();
    while (lru.size() > options.capacity) {
      index.erase(lru.back().first);
      lru.pop_back();
      ++stat.evictions;
    }
  }
};

ResultCache::ResultCache(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
ResultCache::ResultCache(ResultCache&&) noexcept = default;
ResultCache& ResultCache::operator=(ResultCache&&) noexcept = default;
ResultCache::~ResultCache() = default;

// RBS_DET_PATH: replay + compaction decide which entries survive and in what
// WAL order; both walk the recency list, so two opens of the same journal
// write byte-identical compacted WALs.
RBS_DET_PATH Expected<ResultCache> ResultCache::open(const Options& options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->options.capacity = std::max<std::size_t>(1, impl->options.capacity);

  if (!options.journal_path.empty()) {
    const campaign::JournalHeader header{0, kWalItems, kWalTag};
    Expected<campaign::LoadedJournal> loaded = campaign::load_journal(options.journal_path);
    const bool reusable = loaded.is_ok() && loaded.value().header.tag == kWalTag;

    const LockGuard lock(impl->mutex);
    if (reusable) {
      // Replay in append order: later records win, so recency is restored.
      for (const campaign::JournalRecord& record : loaded.value().records) {
        if (record.kind != campaign::JournalRecord::Kind::kOk) continue;
        const std::size_t sep = record.payload.find(kKeyValueSep);
        if (sep == std::string::npos) continue;  // foreign record; skip
        impl->install(record.payload.substr(0, sep), record.payload.substr(sep + 1));
        if (record.index >= impl->next_seq) impl->next_seq = record.index + 1;
      }
      impl->stat.warm_entries = impl->lru.size();

      if (loaded.value().records.size() > 2 * impl->options.capacity) {
        // Compact: rewrite the WAL as exactly the live entries, oldest
        // first, so replay order still encodes recency.
        auto writer = campaign::JournalWriter::create(options.journal_path, header);
        if (!writer.is_ok())
          return Status::error("cache WAL compaction failed: " + writer.status().message());
        impl->wal = std::move(writer).value();
        impl->next_seq = 0;
        for (auto it = impl->lru.rbegin(); it != impl->lru.rend(); ++it) {
          const Status append = impl->wal->append({impl->next_seq++, 1,
                                                   campaign::JournalRecord::Kind::kOk,
                                                   it->first + kKeyValueSep + it->second});
          if (!append.is_ok())
            return Status::error("cache WAL compaction failed: " + append.message());
        }
      } else {
        auto writer = campaign::JournalWriter::resume(options.journal_path, loaded.value());
        if (!writer.is_ok())
          return Status::error("cannot resume cache WAL: " + writer.status().message());
        impl->wal = std::move(writer).value();
      }
    } else {
      // Missing, corrupt, or foreign: the cache is disposable state, so a
      // fresh WAL (losing the warm start, never correctness) is the answer.
      auto writer = campaign::JournalWriter::create(options.journal_path, header);
      if (!writer.is_ok())
        return Status::error("cannot create cache WAL: " + writer.status().message());
      impl->wal = std::move(writer).value();
    }
  }
  return ResultCache(std::move(impl));
}

ResultCache::Lookup ResultCache::lookup_or_begin(const std::string& key) {
  UniqueLock lock(impl_->mutex);
  bool waited = false;
  for (;;) {
    const auto it = impl_->index.find(key);
    if (it != impl_->index.end()) {
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      if (waited) ++impl_->stat.coalesced;
      else ++impl_->stat.hits;
      Lookup result;
      result.hit = true;
      result.value = it->second->second;
      return result;
    }
    if (impl_->inflight.find(key) == impl_->inflight.end()) {
      impl_->inflight.insert(key);
      ++impl_->stat.misses;
      Lookup result;
      result.leader = true;
      return result;
    }
    waited = true;
    impl_->flight_cv.wait(lock);
  }
}

RBS_DET_PATH Status ResultCache::publish(const std::string& key, const std::string& value) {
  Status wal_status = Status::ok();
  {
    const LockGuard lock(impl_->mutex);
    impl_->install(key, value);
    impl_->inflight.erase(key);
    if (impl_->wal.has_value())
      wal_status = impl_->wal->append({impl_->next_seq++, 1,
                                       campaign::JournalRecord::Kind::kOk,
                                       key + kKeyValueSep + value});
  }
  impl_->flight_cv.notify_all();
  return wal_status;
}

void ResultCache::abandon(const std::string& key) {
  {
    const LockGuard lock(impl_->mutex);
    impl_->inflight.erase(key);
  }
  impl_->flight_cv.notify_all();
}

ResultCache::Stats ResultCache::stats() const {
  const LockGuard lock(impl_->mutex);
  Stats s = impl_->stat;
  s.entries = impl_->lru.size();
  return s;
}

}  // namespace rbs::service
