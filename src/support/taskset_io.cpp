#include "support/taskset_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "support/tolerance.hpp"

namespace rbs {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(trim(current));
  return fields;
}

// What a tick field parsed to. Infinities and NaNs are classified instead of
// silently accepted/garbled so the caller can reject them per field with a
// descriptive message (only D(HI)/T(HI) of a LO task may legally be "inf").
enum class TickParse {
  kValue,     ///< finite non-negative value in range
  kInf,       ///< an explicit "inf"/"infinity" token
  kNaN,       ///< an explicit "nan" token
  kNegative,  ///< negative value or "-inf"
  kTooLarge,  ///< overflows or reaches the kInfTicks sentinel
  kBad,       ///< not a number at all
};

TickParse parse_ticks(const std::string& field, Ticks& out) {
  std::string lower = field;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "nan" || lower == "+nan" || lower == "-nan") return TickParse::kNaN;
  if (lower == "inf" || lower == "+inf" || lower == "infinity" || lower == "+infinity") {
    out = kInfTicks;
    return TickParse::kInf;
  }
  if (lower == "-inf" || lower == "-infinity") return TickParse::kNegative;
  const auto* first = field.data();
  const auto* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range)
    return field.size() > 0 && field[0] == '-' ? TickParse::kNegative : TickParse::kTooLarge;
  if (ec != std::errc{} || ptr != last) return TickParse::kBad;
  if (out < 0) return TickParse::kNegative;
  if (out >= kInfTicks) return TickParse::kTooLarge;
  return TickParse::kValue;
}

}  // namespace

std::variant<TaskSet, ParseError> read_task_set(std::istream& in) {
  std::vector<McTask> tasks;
  std::set<std::string> names;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (trim(line).empty()) continue;

    const std::vector<std::string> fields = split_fields(line);
    if (fields.size() != 8)
      return ParseError{line_no, "expected 8 fields (name, crit, C(LO), C(HI), D(LO), "
                                 "D(HI), T(LO), T(HI)), got " +
                                     std::to_string(fields.size())};
    const std::string& name = fields[0];
    if (name.empty()) return ParseError{line_no, "empty task name"};
    if (!names.insert(name).second)
      return ParseError{line_no, "duplicate task name '" + name + "'"};

    std::string crit = fields[1];
    std::transform(crit.begin(), crit.end(), crit.begin(),
                   [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
    if (crit != "HI" && crit != "LO")
      return ParseError{line_no, "criticality must be HI or LO, got '" + fields[1] + "'"};

    Ticks v[6];
    static const char* kFieldNames[] = {"C(LO)", "C(HI)", "D(LO)", "D(HI)", "T(LO)", "T(HI)"};
    // Only D(HI) and T(HI) may carry "inf" (a LO task never re-released in
    // HI mode); every other field must be a finite positive integer.
    static const bool kMayBeInf[] = {false, false, false, true, false, true};
    for (int i = 0; i < 6; ++i) {
      const std::string& raw = fields[static_cast<std::size_t>(i) + 2];
      const std::string what = std::string(kFieldNames[i]) + ": '" + raw + "'";
      switch (parse_ticks(raw, v[i])) {
        case TickParse::kValue:
          break;
        case TickParse::kInf:
          if (!kMayBeInf[i])
            return ParseError{line_no, kFieldNames[i] +
                                           std::string(" must be finite; only D(HI)/T(HI) of "
                                                       "a LO task may be 'inf'")};
          break;
        case TickParse::kNaN:
          return ParseError{line_no, "NaN is not a valid tick value for " + what};
        case TickParse::kNegative:
          return ParseError{line_no, "negative value for " + what + "; tick values must be "
                                     "positive integers"};
        case TickParse::kTooLarge:
          return ParseError{line_no, "value out of the finite tick range for " + what};
        case TickParse::kBad:
          return ParseError{line_no, "cannot parse " + what};
      }
      // Non-positive periods and deadlines are malformed input, not a model
      // to hand to the analysis (validate() would flag them too, but the
      // parse layer owes the caller the field and line).
      if (i >= 2 && v[i] == 0)
        return ParseError{line_no,
                          std::string(kFieldNames[i]) + " must be positive, got '" + raw + "'"};
    }
    const Ticks c_lo = v[0], c_hi = v[1], d_lo = v[2], d_hi = v[3], t_lo = v[4], t_hi = v[5];

    McTask task = crit == "HI" ? McTask::hi(name, c_lo, c_hi, d_lo, d_hi, t_lo)
                               : McTask::lo(name, c_lo, d_lo, t_lo, d_hi, t_hi);
    if (crit == "HI" && t_hi != t_lo)
      return ParseError{line_no, "HI task must have T(HI) = T(LO) (Eq. 1)"};
    if (crit == "LO" && c_hi != c_lo)
      return ParseError{line_no, "LO task must have C(HI) = C(LO) (Eq. 2)"};
    const std::vector<std::string> issues = task.validate();
    if (!issues.empty()) return ParseError{line_no, issues.front()};
    tasks.push_back(std::move(task));
  }
  if (!in.eof() && in.fail()) return ParseError{0, "stream read failure"};
  return TaskSet(std::move(tasks));
}

std::variant<TaskSet, ParseError> read_task_set_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return ParseError{0, "cannot open '" + path + "'"};
  return read_task_set(in);
}

namespace {

Expected<TaskSet> fold_error(std::variant<TaskSet, ParseError> result) {
  if (auto* err = std::get_if<ParseError>(&result)) {
    if (err->line > 0)
      return Status::error("line " + std::to_string(err->line) + ": " + err->message);
    return Status::error(err->message);
  }
  return std::get<TaskSet>(std::move(result));
}

}  // namespace

void write_task_set(std::ostream& out, const TaskSet& set) {
  out << "# name, crit, C(LO), C(HI), D(LO), D(HI), T(LO), T(HI)\n";
  auto tick = [](Ticks t) { return is_inf(t) ? std::string("inf") : std::to_string(t); };
  for (const McTask& t : set) {
    out << t.name() << ", " << to_string(t.criticality()) << ", " << tick(t.wcet(Mode::LO))
        << ", " << tick(t.wcet(Mode::HI)) << ", " << tick(t.deadline(Mode::LO)) << ", "
        << tick(t.deadline(Mode::HI)) << ", " << tick(t.period(Mode::LO)) << ", "
        << tick(t.period(Mode::HI)) << "\n";
  }
}

bool write_task_set_file(const std::string& path, const TaskSet& set) {
  std::ofstream out(path);
  if (!out) return false;
  write_task_set(out, set);
  return true;
}

namespace {

// Recognizes the two partition directives inside a comment. Anything else in
// a comment is prose and ignored, but a comment whose first token IS a
// directive keyword must parse completely -- a typo like "# cores" with no
// count is an error, not a silently flat file.
enum class Directive { kNone, kCores, kCore, kMalformed };

Directive parse_directive(const std::string& comment, std::size_t& value, std::string& error) {
  std::istringstream in(comment);
  std::string word;
  if (!(in >> word)) return Directive::kNone;
  const bool is_cores = word == "cores";
  const bool is_core = word == "core";
  if (!is_cores && !is_core) return Directive::kNone;
  long long parsed = -1;
  std::string tail;
  if (!(in >> parsed) || parsed < 0 || (in >> tail)) {
    error = "malformed '# " + word + "' directive: '" + comment + "'";
    return Directive::kMalformed;
  }
  value = static_cast<std::size_t>(parsed);
  return is_cores ? Directive::kCores : Directive::kCore;
}

}  // namespace

// rbs-lint: allow(api-unreached) -- the reader of `make_taskset --cores` output.
Expected<PartitionedTaskSet> load_partitioned_task_set(std::istream& in) {
  // Slurp once so the directive scan and the flat parse see the same bytes.
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.eof() && in.fail()) return Status::error("stream read failure");
  const std::string text = buffer.str();

  // Pass 1: map every task line to the core group it falls under. Directives
  // live in comments, so this pass only needs to tell task lines (non-empty
  // after stripping) from everything else; field validation is pass 2's job.
  std::size_t cores = 0;
  bool have_cores = false;
  bool have_group = false;
  std::size_t current = 0;
  std::vector<std::size_t> task_core;
  {
    std::istringstream scan(text);
    std::string line;
    int line_no = 0;
    while (std::getline(scan, line)) {
      ++line_no;
      const std::string at_line = "line " + std::to_string(line_no) + ": ";
      const auto hash = line.find('#');
      if (hash != std::string::npos) {
        std::size_t value = 0;
        std::string error;
        switch (parse_directive(trim(line.substr(hash + 1)), value, error)) {
          case Directive::kNone:
            break;
          case Directive::kMalformed:
            return Status::error(at_line + error);
          case Directive::kCores:
            if (have_cores) return Status::error(at_line + "duplicate '# cores' directive");
            if (!task_core.empty())
              return Status::error(at_line + "'# cores' must precede every task line");
            if (value == 0) return Status::error(at_line + "'# cores 0' is not a partition");
            cores = value;
            have_cores = true;
            break;
          case Directive::kCore:
            if (!have_cores)
              return Status::error(at_line + "'# core' before the '# cores M' directive");
            if (value >= cores)
              return Status::error(at_line + "'# core " + std::to_string(value) +
                                   "' out of range for " + std::to_string(cores) + " cores");
            current = value;
            have_group = true;
            break;
        }
        line.erase(hash);
      }
      if (trim(line).empty()) continue;
      if (!have_cores)
        return Status::error(at_line + "task line before the '# cores M' directive; "
                             "not a partitioned task-set file");
      if (!have_group)
        return Status::error(at_line + "task line before any '# core c' marker");
      task_core.push_back(current);
    }
  }
  if (!have_cores) return Status::error("missing '# cores M' directive");

  // Pass 2: the flat reader owns all per-field validation and diagnostics.
  std::istringstream flat(text);
  Expected<TaskSet> set = fold_error(read_task_set(flat));
  if (!set) return set.status();
  // Both passes count exactly the non-blank stripped lines, so they agree.
  PartitionedTaskSet result;
  result.set = std::move(*set);
  result.assignment.assign(cores, {});
  for (std::size_t i = 0; i < task_core.size(); ++i)
    result.assignment[task_core[i]].push_back(i);
  return result;
}

// rbs-lint: allow(api-unreached) -- the reader of `make_taskset --cores` output.
Expected<PartitionedTaskSet> load_partitioned_task_set_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::error("cannot open '" + path + "'");
  return load_partitioned_task_set(in);
}

void write_partitioned_task_set(std::ostream& out, const PartitionedTaskSet& partitioned) {
  out << "# cores " << partitioned.assignment.size() << "\n";
  out << "# name, crit, C(LO), C(HI), D(LO), D(HI), T(LO), T(HI)\n";
  auto tick = [](Ticks t) { return is_inf(t) ? std::string("inf") : std::to_string(t); };
  for (std::size_t c = 0; c < partitioned.assignment.size(); ++c) {
    out << "# core " << c << "\n";
    for (const std::size_t index : partitioned.assignment[c]) {
      const McTask& t = partitioned.set[index];
      out << t.name() << ", " << to_string(t.criticality()) << ", " << tick(t.wcet(Mode::LO))
          << ", " << tick(t.wcet(Mode::HI)) << ", " << tick(t.deadline(Mode::LO)) << ", "
          << tick(t.deadline(Mode::HI)) << ", " << tick(t.period(Mode::LO)) << ", "
          << tick(t.period(Mode::HI)) << "\n";
    }
  }
}

bool write_partitioned_task_set_file(const std::string& path, const PartitionedTaskSet& partitioned) {
  std::ofstream out(path);
  if (!out) return false;
  write_partitioned_task_set(out, partitioned);
  return true;
}

std::string canonical_task_set(const TaskSet& set) {
  // One tuple per task, name-free; is_inf() collapses every >= kInfTicks
  // encoding of "+inf" onto a single representative so differently-saturated
  // inputs canonicalize identically.
  struct Tuple {
    int crit;
    Ticks v[6];
    bool operator<(const Tuple& other) const {
      if (crit != other.crit) return crit < other.crit;
      for (int i = 0; i < 6; ++i)
        if (v[i] != other.v[i]) return v[i] < other.v[i];
      return false;
    }
  };
  std::vector<Tuple> tuples;
  tuples.reserve(set.size());
  for (const McTask& t : set) {
    Tuple tuple{};
    tuple.crit = t.is_hi() ? 1 : 0;
    const Ticks raw[6] = {t.wcet(Mode::LO),     t.wcet(Mode::HI),   t.deadline(Mode::LO),
                          t.deadline(Mode::HI), t.period(Mode::LO), t.period(Mode::HI)};
    for (int i = 0; i < 6; ++i) tuple.v[i] = is_inf(raw[i]) ? kInfTicks : raw[i];
    tuples.push_back(tuple);
  }
  std::sort(tuples.begin(), tuples.end());

  std::string out;
  auto tick = [](Ticks t) { return is_inf(t) ? std::string("inf") : std::to_string(t); };
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (i != 0) out += '|';
    out += tuples[i].crit == 1 ? "HI" : "LO";
    for (const Ticks v : tuples[i].v) {
      out += ',';
      out += tick(v);
    }
  }
  return out;
}

std::string canonical_double(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  // Snap onto the kCanonicalGrid lattice; the lattice index is an integer, so
  // printing it (plus the fixed grid) is exact and whitespace-free. Values
  // too large for the lattice fall back to full-precision %.17g -- they are
  // far outside the tolerance-sensitive O(1) range anyway.
  const double scaled = value / kCanonicalGrid;
  constexpr double kMaxLattice = 9.0e15;  // below 2^53: every index exact
  char buffer[40];
  if (scaled >= -kMaxLattice && scaled <= kMaxLattice) {
    const auto index = static_cast<long long>(std::llround(scaled));
    std::snprintf(buffer, sizeof buffer, "g%lld", index);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
  }
  return buffer;
}

}  // namespace rbs
