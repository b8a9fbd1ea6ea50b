#include "sim/trace_io.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

namespace rbs::sim {

namespace {

// Minimal JSON string escaping (task names are identifiers in practice).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

void write_trace_json(std::ostream& os, const TaskSet& set, const SimMetrics& result) {
  os.precision(std::numeric_limits<double>::max_digits10);

  os << "{\n  \"tasks\": [";
  for (std::size_t i = 0; i < set.size(); ++i)
    os << (i ? ", " : "") << '"' << json_escape(set[i].name()) << '"';
  os << "],\n  \"segments\": [";

  bool first = true;
  for (const TraceSegment& s : result.trace.segments) {
    os << (first ? "" : ",") << "\n    {\"start\": " << s.start << ", \"end\": " << s.end
       << ", \"task\": " << s.task_index << ", \"job\": " << s.job_id
       << ", \"speed\": " << s.speed << ", \"mode\": \"" << to_string(s.mode) << "\"}";
    first = false;
  }
  os << "\n  ],\n  \"events\": [";

  first = true;
  for (const TraceEvent& e : result.trace.events) {
    os << (first ? "" : ",") << "\n    {\"time\": " << e.time << ", \"kind\": \""
       << to_string(e.kind) << "\", \"task\": " << e.task_index << ", \"job\": " << e.job_id
       << "}";
    first = false;
  }
  os << "\n  ],\n  \"jobs\": [";

  first = true;
  for (const JobRecord& j : result.trace.jobs) {
    os << (first ? "" : ",") << "\n    {\"task\": " << j.task_index << ", \"job\": " << j.job_id
       << ", \"release\": " << j.release << ", \"demand\": " << j.demand << "}";
    first = false;
  }
  os << "\n  ],\n  \"summary\": {"
     << "\"jobs_released\": " << result.jobs_released
     << ", \"jobs_completed\": " << result.jobs_completed
     << ", \"jobs_abandoned\": " << result.jobs_abandoned
     << ", \"deadline_misses\": " << result.misses.size()
     << ", \"mode_switches\": " << result.mode_switches
     << ", \"budget_fallbacks\": " << result.budget_fallbacks
     << ", \"faults_injected\": " << result.faults_injected
     << ", \"throttle_downs\": " << result.throttle_downs
     << ", \"undetected_overruns\": " << result.undetected_overruns
     << ", \"busy_time\": " << result.busy_time << ", \"horizon\": " << result.horizon
     << "}\n}\n";
}

// rbs-lint: allow(api-unreached) -- feeds the reader's round-trip tests.
std::string trace_to_json(const TaskSet& set, const SimMetrics& result) {
  std::ostringstream os;
  write_trace_json(os, set, result);
  return os.str();
}

// --------------------------------------------------------------------------
// Reader: a small recursive-descent JSON parser. Generic enough to accept
// reordered / unknown fields, strict enough that truncation, unbalanced
// brackets or type mismatches always surface as Status errors.
// --------------------------------------------------------------------------

namespace {

struct JsonValue {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Expected<JsonValue> parse() {
    JsonValue root;
    Status s = parse_value(root, 0);
    if (!s) return s;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing garbage after the top-level value");
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status fail(const std::string& what) const {
    return Status::error("JSON parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f') return parse_keyword(out, c == 't' ? "true" : "false");
    if (c == 'n') return parse_keyword(out, "null");
    return parse_number(out);
  }

  Status parse_keyword(JsonValue& out, const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return fail("invalid literal");
    pos_ += word.size();
    if (word == "true" || word == "false") {
      out.type = JsonValue::Type::kBool;
      out.boolean = word == "true";
    } else {
      out.type = JsonValue::Type::kNull;
    }
    return Status::ok();
  }

  Status parse_number(JsonValue& out) {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) return fail("expected a value");
    if (!std::isfinite(value)) return fail("non-finite number");
    pos_ += static_cast<std::size_t>(end - begin);
    out.type = JsonValue::Type::kNumber;
    out.number = value;
    return Status::ok();
  }

  Status parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        default: return fail("unsupported escape sequence");
      }
    }
    return fail("unterminated string");
  }

  Status parse_array(JsonValue& out, int depth) {
    consume('[');
    out.type = JsonValue::Type::kArray;
    skip_ws();
    if (consume(']')) return Status::ok();
    while (true) {
      JsonValue element;
      Status s = parse_value(element, depth + 1);
      if (!s) return s;
      out.array.push_back(std::move(element));
      skip_ws();
      if (consume(']')) return Status::ok();
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  Status parse_object(JsonValue& out, int depth) {
    consume('{');
    out.type = JsonValue::Type::kObject;
    skip_ws();
    if (consume('}')) return Status::ok();
    while (true) {
      skip_ws();
      std::string key;
      Status s = parse_string(key);
      if (!s) return s;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      JsonValue value;
      s = parse_value(value, depth + 1);
      if (!s) return s;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return Status::ok();
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---- mapping JsonValue -> TraceDocument ----------------------------------

Status require_number(const JsonValue& obj, const std::string& key, const std::string& where,
                      double& out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->type != JsonValue::Type::kNumber)
    return Status::error(where + ": missing or non-numeric field \"" + key + "\"");
  out = v->number;
  return Status::ok();
}

Status require_string(const JsonValue& obj, const std::string& key, const std::string& where,
                      std::string& out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->type != JsonValue::Type::kString)
    return Status::error(where + ": missing or non-string field \"" + key + "\"");
  out = v->string;
  return Status::ok();
}

Status parse_mode(const std::string& name, const std::string& where, Mode& out) {
  if (name == to_string(Mode::LO)) {
    out = Mode::LO;
    return Status::ok();
  }
  if (name == to_string(Mode::HI)) {
    out = Mode::HI;
    return Status::ok();
  }
  return Status::error(where + ": unknown mode \"" + name + "\"");
}

Status map_document(const JsonValue& root, TraceDocument& doc) {
  if (root.type != JsonValue::Type::kObject)
    return Status::error("top-level JSON value is not an object");

  const JsonValue* tasks = root.find("tasks");
  if (!tasks || tasks->type != JsonValue::Type::kArray)
    return Status::error("missing \"tasks\" array");
  for (std::size_t i = 0; i < tasks->array.size(); ++i) {
    if (tasks->array[i].type != JsonValue::Type::kString)
      return Status::error("tasks[" + std::to_string(i) + "] is not a string");
    doc.tasks.push_back(tasks->array[i].string);
  }

  const JsonValue* segments = root.find("segments");
  if (!segments || segments->type != JsonValue::Type::kArray)
    return Status::error("missing \"segments\" array");
  for (std::size_t i = 0; i < segments->array.size(); ++i) {
    const JsonValue& o = segments->array[i];
    const std::string where = "segments[" + std::to_string(i) + "]";
    if (o.type != JsonValue::Type::kObject) return Status::error(where + " is not an object");
    TraceSegment seg;
    double task = 0.0, job = 0.0;
    std::string mode;
    for (Status s : {require_number(o, "start", where, seg.start),
                     require_number(o, "end", where, seg.end),
                     require_number(o, "task", where, task),
                     require_number(o, "job", where, job),
                     require_number(o, "speed", where, seg.speed),
                     require_string(o, "mode", where, mode)})
      if (!s) return s;
    Status s = parse_mode(mode, where, seg.mode);
    if (!s) return s;
    seg.task_index = static_cast<int>(task);
    seg.job_id = static_cast<std::uint64_t>(job);
    doc.trace.segments.push_back(seg);
  }

  const JsonValue* events = root.find("events");
  if (!events || events->type != JsonValue::Type::kArray)
    return Status::error("missing \"events\" array");
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& o = events->array[i];
    const std::string where = "events[" + std::to_string(i) + "]";
    if (o.type != JsonValue::Type::kObject) return Status::error(where + " is not an object");
    TraceEvent ev;
    double task = 0.0, job = 0.0;
    std::string kind;
    for (Status s : {require_number(o, "time", where, ev.time),
                     require_string(o, "kind", where, kind),
                     require_number(o, "task", where, task),
                     require_number(o, "job", where, job)})
      if (!s) return s;
    if (!parse_event_kind(kind, ev.kind))
      return Status::error(where + ": unknown event kind \"" + kind + "\"");
    ev.task_index = static_cast<int>(task);
    ev.job_id = static_cast<std::uint64_t>(job);
    doc.trace.events.push_back(ev);
  }

  // Optional: traces written before the jobs section simply have none.
  if (const JsonValue* jobs = root.find("jobs")) {
    if (jobs->type != JsonValue::Type::kArray) return Status::error("\"jobs\" is not an array");
    for (std::size_t i = 0; i < jobs->array.size(); ++i) {
      const JsonValue& o = jobs->array[i];
      const std::string where = "jobs[" + std::to_string(i) + "]";
      if (o.type != JsonValue::Type::kObject) return Status::error(where + " is not an object");
      JobRecord rec;
      double task = 0.0, job = 0.0;
      for (Status s : {require_number(o, "task", where, task),
                       require_number(o, "job", where, job),
                       require_number(o, "release", where, rec.release),
                       require_number(o, "demand", where, rec.demand)})
        if (!s) return s;
      rec.task_index = static_cast<int>(task);
      rec.job_id = static_cast<std::uint64_t>(job);
      doc.trace.jobs.push_back(rec);
    }
  }

  const JsonValue* summary = root.find("summary");
  if (!summary || summary->type != JsonValue::Type::kObject)
    return Status::error("missing \"summary\" object");
  const auto counter = [&](const char* key, std::uint64_t& out) {
    if (const JsonValue* v = summary->find(key); v && v->type == JsonValue::Type::kNumber)
      out = static_cast<std::uint64_t>(v->number);
  };
  counter("jobs_released", doc.summary.jobs_released);
  counter("jobs_completed", doc.summary.jobs_completed);
  counter("jobs_abandoned", doc.summary.jobs_abandoned);
  counter("deadline_misses", doc.summary.deadline_misses);
  counter("mode_switches", doc.summary.mode_switches);
  counter("budget_fallbacks", doc.summary.budget_fallbacks);
  counter("faults_injected", doc.summary.faults_injected);
  counter("throttle_downs", doc.summary.throttle_downs);
  counter("undetected_overruns", doc.summary.undetected_overruns);
  if (const JsonValue* v = summary->find("busy_time"); v && v->type == JsonValue::Type::kNumber)
    doc.summary.busy_time = v->number;
  if (const JsonValue* v = summary->find("horizon"); v && v->type == JsonValue::Type::kNumber)
    doc.summary.horizon = v->number;

  return Status::ok();
}

}  // namespace

// The JSON trace reader checks that the writer stress_protocol uses
// round-trips, and is the target of the seeded trace fuzzer.
// rbs-lint: allow(api-unreached) -- the trace writer's round-trip reader.
Expected<TraceDocument> parse_trace_json(const std::string& text) {
  Expected<JsonValue> root = JsonParser(text).parse();
  if (!root) return root.status();
  TraceDocument doc;
  Status s = map_document(root.value(), doc);
  if (!s) return s;
  return doc;
}

// rbs-lint: allow(api-unreached) -- the trace writer's round-trip reader.
Expected<TraceDocument> read_trace_json(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::error("stream read failure");
  return parse_trace_json(buffer.str());
}

// rbs-lint: allow(api-unreached) -- the trace writer's round-trip reader.
Expected<TraceDocument> read_trace_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::error("cannot open '" + path + "'");
  return read_trace_json(in);
}

}  // namespace rbs::sim
