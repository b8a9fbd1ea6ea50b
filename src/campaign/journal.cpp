#include "campaign/journal.hpp"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "support/atomic_file.hpp"
#include "support/crc32.hpp"
#include "support/det_annotations.hpp"

namespace rbs::campaign {

namespace {

constexpr int kJournalVersion = 1;

// --- serialization ----------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (raw) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

const char* kind_name(JournalRecord::Kind kind) {
  switch (kind) {
    case JournalRecord::Kind::kOk: return "ok";
    case JournalRecord::Kind::kFailed: return "failed";
    case JournalRecord::Kind::kQuarantined: return "quarantined";
  }
  return "?";
}

bool kind_from_name(const std::string& name, JournalRecord::Kind& out) {
  if (name == "ok") out = JournalRecord::Kind::kOk;
  else if (name == "failed") out = JournalRecord::Kind::kFailed;
  else if (name == "quarantined") out = JournalRecord::Kind::kQuarantined;
  else return false;
  return true;
}

/// The canonical byte string the CRC covers; field separators cannot occur
/// unescaped, so distinct logical records never collide.
std::string header_crc_basis(const JournalHeader& h) {
  return "h|" + std::to_string(kJournalVersion) + '|' + std::to_string(h.seed) + '|' +
         std::to_string(h.items) + '|' + json_escape(h.tag);
}

std::string record_crc_basis(const JournalRecord& r) {
  return "r|" + std::to_string(r.index) + '|' + std::to_string(r.attempt) + '|' +
         kind_name(r.kind) + '|' + json_escape(r.payload);
}

// --- flat-JSON line parsing -------------------------------------------------

/// Values of one journal line: every key maps to either a string or an
/// unsigned integer (the only value shapes the format uses).
struct FlatFields {
  std::map<std::string, std::string> strings;
  std::map<std::string, std::uint64_t> numbers;
};

class LineParser {
 public:
  explicit LineParser(const std::string& line) : s_(line) {}

  bool parse(FlatFields& out) {
    skip_ws();
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return finish();
    for (;;) {
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '"') {
        std::string value;
        if (!parse_string(value)) return false;
        out.strings[key] = std::move(value);
      } else {
        std::uint64_t value = 0;
        if (!parse_number(value)) return false;
        out.numbers[key] = value;
      }
      skip_ws();
      if (eat(',')) {
        skip_ws();
        continue;
      }
      if (eat('}')) return finish();
      return false;
    }
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool finish() {
    skip_ws();
    return pos_ == s_.size();
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned value = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value += static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          if (value > 0xFF) return false;  // the writer only emits \u00XX
          out += static_cast<char>(value);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(std::uint64_t& out) {
    const std::size_t start = pos_;
    out = 0;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
      const auto digit = static_cast<std::uint64_t>(s_[pos_] - '0');
      if (out > (std::uint64_t{0xFFFFFFFFFFFFFFFFu} - digit) / 10) return false;
      out = out * 10 + digit;
      ++pos_;
    }
    return pos_ > start;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool get_number(const FlatFields& f, const char* key, std::uint64_t& out) {
  const auto it = f.numbers.find(key);
  if (it == f.numbers.end()) return false;
  out = it->second;
  return true;
}

bool get_string(const FlatFields& f, const char* key, std::string& out) {
  const auto it = f.strings.find(key);
  if (it == f.strings.end()) return false;
  out = it->second;
  return true;
}

Status parse_header_line(const std::string& line, JournalHeader& out) {
  FlatFields fields;
  if (!LineParser(line).parse(fields)) return Status::error("header is not a valid record");
  std::uint64_t version = 0, crc = 0;
  if (!get_number(fields, "rbs_journal", version) || version != kJournalVersion)
    return Status::error("not an rbs journal (missing or unsupported version marker)");
  if (!get_number(fields, "seed", out.seed) || !get_number(fields, "items", out.items) ||
      !get_string(fields, "tag", out.tag) || !get_number(fields, "crc", crc))
    return Status::error("header is missing required fields");
  if (crc != crc32(header_crc_basis(out)))
    return Status::error("header CRC mismatch (journal corrupted)");
  return Status::ok();
}

Status parse_record_line(const std::string& line, JournalRecord& out) {
  FlatFields fields;
  if (!LineParser(line).parse(fields)) return Status::error("line is not a valid record");
  std::uint64_t attempt = 0, crc = 0;
  std::string kind;
  if (!get_number(fields, "i", out.index) || !get_number(fields, "a", attempt) ||
      !get_string(fields, "k", kind) || !get_string(fields, "p", out.payload) ||
      !get_number(fields, "crc", crc))
    return Status::error("record is missing required fields");
  if (attempt == 0 || attempt > 0xFFFFFFFFu) return Status::error("bad attempt number");
  out.attempt = static_cast<std::uint32_t>(attempt);
  if (!kind_from_name(kind, out.kind))
    return Status::error("unknown record kind '" + kind + "'");
  if (crc != crc32(record_crc_basis(out)))
    return Status::error("record CRC mismatch (journal corrupted)");
  return Status::ok();
}

/// Folds one verified record into the per-item view, rejecting conflicts.
/// Exact duplicates (same index/attempt/kind/payload, e.g. a replayed append
/// after a crash between write and bookkeeping) are benign and dropped.
struct ItemFold {
  bool has_final = false;
  JournalRecord::Kind final_kind = JournalRecord::Kind::kOk;
  std::string final_payload;
  std::map<std::uint32_t, std::string> failed_payloads;  ///< by attempt
};

Status fold_record(std::map<std::uint64_t, ItemFold>& folds, const JournalRecord& record,
                   std::size_t line_no, bool& duplicate) {
  duplicate = false;
  ItemFold& fold = folds[record.index];
  const auto describe = [&] {
    return "line " + std::to_string(line_no) + ": item " + std::to_string(record.index);
  };
  if (record.kind == JournalRecord::Kind::kFailed) {
    if (fold.has_final)
      return Status::error(describe() + " has a failed attempt after its final verdict");
    const auto it = fold.failed_payloads.find(record.attempt);
    if (it != fold.failed_payloads.end()) {
      if (it->second == record.payload) {
        duplicate = true;
        return Status::ok();
      }
      return Status::error(describe() + " has conflicting duplicate records for attempt " +
                           std::to_string(record.attempt));
    }
    // A failure identical to one already on file except for the attempt
    // counter is a replay, not a new attempt: a resume that re-executes an
    // item re-logs the same deterministic failure with a bumped counter.
    // Folding it keeps failed_attempts() (and thus retry budgets) honest
    // across crash/resume cycles. A *different* payload at a new attempt is
    // a genuine retry and is kept.
    for (const auto& entry : fold.failed_payloads) {
      if (entry.second == record.payload) {
        duplicate = true;
        return Status::ok();
      }
    }
    fold.failed_payloads.emplace(record.attempt, record.payload);
    return Status::ok();
  }
  if (fold.has_final) {
    if (fold.final_kind == record.kind && fold.final_payload == record.payload) {
      duplicate = true;
      return Status::ok();
    }
    return Status::error(describe() + " has conflicting duplicate verdicts");
  }
  fold.has_final = true;
  fold.final_kind = record.kind;
  fold.final_payload = record.payload;
  return Status::ok();
}

}  // namespace

// RBS_DET_PATH on the codec pair: resume byte-compares replayed journals, so
// serialization must produce identical bytes for identical records.
RBS_DET_PATH std::string serialize_header(const JournalHeader& header) {
  std::ostringstream line;
  line << "{\"rbs_journal\":" << kJournalVersion << ",\"seed\":" << header.seed
       << ",\"items\":" << header.items << ",\"tag\":\"" << json_escape(header.tag)
       << "\",\"crc\":" << crc32(header_crc_basis(header)) << "}\n";
  return line.str();
}

RBS_DET_PATH std::string serialize_record(const JournalRecord& record) {
  std::ostringstream line;
  line << "{\"i\":" << record.index << ",\"a\":" << record.attempt << ",\"k\":\""
       << kind_name(record.kind) << "\",\"p\":\"" << json_escape(record.payload)
       << "\",\"crc\":" << crc32(record_crc_basis(record)) << "}\n";
  return line.str();
}

const JournalRecord* LoadedJournal::final_record(std::uint64_t index) const {
  for (auto it = records.rbegin(); it != records.rend(); ++it)
    if (it->index == index && it->kind != JournalRecord::Kind::kFailed) return &*it;
  return nullptr;
}

std::uint32_t LoadedJournal::failed_attempts(std::uint64_t index) const {
  std::uint32_t n = 0;
  for (const JournalRecord& r : records)
    if (r.index == index && r.kind == JournalRecord::Kind::kFailed) ++n;
  return n;
}

// RBS_DET_PATH: replay decides which items rerun on resume; the fold must
// depend only on record content and append order, never ambient state.
RBS_DET_PATH Expected<LoadedJournal> load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::error("cannot open journal '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return Status::error("cannot read journal '" + path + "'");
  const std::string text = buffer.str();

  // Split into lines; a final fragment without '\n' is by construction a
  // torn tail (the writer terminates every line before fsyncing).
  struct Line {
    std::string text;
    bool complete;
  };
  std::vector<Line> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back({text.substr(start), false});
      break;
    }
    lines.push_back({text.substr(start, nl - start), true});
    start = nl + 1;
  }

  if (lines.empty() || !lines.front().complete)
    return Status::error("journal '" + path + "' has no complete header line");

  LoadedJournal loaded;
  const Status header_status = parse_header_line(lines.front().text, loaded.header);
  if (!header_status)
    return Status::error("journal '" + path + "': " + header_status.message());
  loaded.valid_bytes = lines.front().text.size() + 1;

  std::map<std::uint64_t, ItemFold> folds;
  for (std::size_t li = 1; li < lines.size(); ++li) {
    const bool last = li + 1 == lines.size();
    JournalRecord record;
    Status status = lines[li].complete
                        ? parse_record_line(lines[li].text, record)
                        : Status::error("incomplete line (torn tail)");
    if (status && record.index >= loaded.header.items)
      status = Status::error("item index " + std::to_string(record.index) +
                             " out of range (journal header says " +
                             std::to_string(loaded.header.items) + " items)");
    if (!status) {
      if (last) {
        // Torn tail: the kill landed mid-append. Recover by dropping it.
        loaded.dropped_tail_bytes = text.size() - loaded.valid_bytes;
        return loaded;
      }
      return Status::error("journal '" + path + "' line " + std::to_string(li + 1) + ": " +
                           status.message());
    }
    bool duplicate = false;
    const Status fold_status = fold_record(folds, record, li + 1, duplicate);
    if (!fold_status)
      return Status::error("journal '" + path + "': " + fold_status.message());
    loaded.valid_bytes += lines[li].text.size() + 1;
    if (duplicate) {
      ++loaded.duplicate_records;
      continue;
    }
    loaded.records.push_back(std::move(record));
  }
  return loaded;
}

Expected<JournalWriter> JournalWriter::create(const std::string& path,
                                              const JournalHeader& header) {
  {
    AtomicFile file(path);
    if (!file.ok())
      return Status::error("cannot create journal '" + path + "'");
    file.write(serialize_header(header));
    if (!file.commit())
      return Status::error("cannot write journal header to '" + path + "'");
  }
  JournalWriter writer;
  writer.path_ = path;
  {
    const LockGuard lock(writer.mutex_);
    writer.out_ = std::fopen(path.c_str(), "ab");
    if (writer.out_ == nullptr)
      return Status::error("cannot reopen journal '" + path + "' for appending");
  }
  return writer;
}

Expected<JournalWriter> JournalWriter::resume(const std::string& path,
                                              const LoadedJournal& loaded) {
  if (loaded.dropped_tail_bytes > 0) {
    std::error_code ec;
    std::filesystem::resize_file(path, loaded.valid_bytes, ec);
    if (ec)
      return Status::error("cannot truncate torn tail of journal '" + path +
                           "': " + ec.message());
  }
  JournalWriter writer;
  writer.path_ = path;
  {
    const LockGuard lock(writer.mutex_);
    writer.out_ = std::fopen(path.c_str(), "ab");
    if (writer.out_ == nullptr)
      return Status::error("cannot open journal '" + path + "' for appending");
  }
  return writer;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept RBS_NO_THREAD_SAFETY_ANALYSIS
    : path_(std::move(other.path_)),
      out_(other.out_) {
  other.out_ = nullptr;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept
    RBS_NO_THREAD_SAFETY_ANALYSIS {
  if (this != &other) {
    if (out_ != nullptr) std::fclose(out_);
    path_ = std::move(other.path_);
    out_ = other.out_;
    other.out_ = nullptr;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  const LockGuard lock(mutex_);
  if (out_ != nullptr) {
    fsync_stream(out_);
    std::fclose(out_);
  }
}

Expected<OpenedJournal> open_journal(const std::string& path, const JournalHeader& header,
                                     bool resume) {
  std::error_code ec;
  if (!resume || !std::filesystem::exists(path, ec)) {
    Expected<JournalWriter> writer = JournalWriter::create(path, header);
    if (!writer) return writer.status();
    return OpenedJournal{std::move(writer).value(), std::nullopt,
                         resume ? "no journal at '" + path + "'; starting fresh" : ""};
  }
  Expected<LoadedJournal> loaded = load_journal(path);
  if (!loaded)
    return Status::error("cannot resume from '" + path + "': " + loaded.status().message());
  const JournalHeader& found = loaded.value().header;
  if (found.seed != header.seed || found.items != header.items || found.tag != header.tag)
    return Status::error("journal '" + path +
                         "' belongs to a different campaign (seed/items/tag mismatch); "
                         "rerun without --resume to replace it");
  Expected<JournalWriter> writer = JournalWriter::resume(path, loaded.value());
  if (!writer) return writer.status();
  std::string note;
  if (loaded.value().dropped_tail_bytes != 0)
    note = "dropped " + std::to_string(loaded.value().dropped_tail_bytes) +
           " torn-tail byte(s) from '" + path + "'";
  return OpenedJournal{std::move(writer).value(), std::move(loaded).value(), std::move(note)};
}

Status JournalWriter::append(const JournalRecord& record) {
  const std::string line = serialize_record(record);
  const LockGuard lock(mutex_);
  if (out_ == nullptr) return Status::error("journal writer is closed");
  if (std::fwrite(line.data(), 1, line.size(), out_) != line.size())
    return Status::error("short write appending to journal '" + path_ + "'");
  if (!fsync_stream(out_))
    return Status::error("cannot fsync journal '" + path_ + "'");
  return Status::ok();
}

}  // namespace rbs::campaign
