#include "rbs_lint/rt.hpp"

#include <cstdint>
#include <map>
#include <set>
#include <utility>

namespace rbs::lint {

namespace {

// Mutex/condvar/thread operations: any member call with one of these names
// blocks (or unblocks someone else) by design.
const std::set<std::string>& blocking_members() {
  static const std::set<std::string> k = {
      "lock",        "unlock",        "try_lock",    "try_lock_for", "try_lock_until",
      "lock_shared", "unlock_shared", "wait",        "wait_for",     "wait_until",
      "notify_one",  "notify_all",    "join",        "detach",       "flush",
      "open",        "close"};
  return k;
}

// Blocking free calls: stdio, POSIX I/O, sleeps.
const std::set<std::string>& blocking_calls() {
  static const std::set<std::string> k = {
      "fopen",  "fclose",   "fread",  "fwrite",    "fputs",      "fgets",  "fprintf",
      "printf", "vfprintf", "fscanf", "scanf",     "fflush",     "fsync",  "fdatasync",
      "sleep",  "usleep",   "nanosleep", "sleep_for", "sleep_until", "yield", "system",
      "getline", "getchar", "putchar", "puts",     "perror"};
  return k;
}

// Stream globals: touching one means (buffered, locking) I/O.
const std::set<std::string>& stream_idents() {
  static const std::set<std::string> k = {"cout", "cerr", "cin", "clog", "wcout", "wcerr"};
  return k;
}

// Allocating free calls.
const std::set<std::string>& alloc_calls() {
  static const std::set<std::string> k = {
      "malloc",      "calloc",     "realloc",        "free",        "strdup",
      "strndup",     "aligned_alloc", "posix_memalign", "make_unique", "make_shared",
      "to_string"};
  return k;
}

// Types whose construction allocates (or may allocate on first growth --
// the construction itself is the thing to hoist out of the hot tree).
const std::set<std::string>& alloc_types() {
  static const std::set<std::string> k = {
      "vector",        "deque",         "list",          "forward_list", "map",
      "multimap",      "unordered_map", "set",           "multiset",     "unordered_set",
      "string",        "basic_string",  "wstring",       "function",     "stringstream",
      "ostringstream", "istringstream", "priority_queue", "queue",       "stack"};
  return k;
}

// RAII guards and file streams: construction locks / opens.
const std::set<std::string>& guard_types() {
  static const std::set<std::string> k = {"lock_guard", "unique_lock", "scoped_lock",
                                          "shared_lock", "LockGuard",  "UniqueLock",
                                          "ifstream",    "ofstream",   "fstream"};
  return k;
}

struct CallEdge {
  std::size_t to = 0;
  int line = 0;
  std::string callee;  ///< name as written at the call site
};

/// True when the identifier at `i` begins a construction of a type in
/// `types`: `T v`, `T<...> v`, `T(...)`, `T{...}` -- but not `T&`, `T*`,
/// `T::nested`, or a member access `.T`.
bool constructs_type(const std::vector<Token>& t, std::size_t i,
                     const std::set<std::string>& types) {
  if (t[i].kind != TokKind::kIdent || types.count(t[i].text) == 0) return false;
  if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) return false;
  std::size_t j = i + 1;
  if (j < t.size() && is_punct(t[j], "<")) j = skip_group(t, j, "<", ">");
  if (j >= t.size()) return false;
  if (is_punct(t[j], "&") || is_punct(t[j], "&&") || is_punct(t[j], "*") ||
      is_punct(t[j], "::"))
    return false;
  return t[j].kind == TokKind::kIdent || is_punct(t[j], "(") || is_punct(t[j], "{");
}

const DisciplineFamily kRtFamily = {&FunctionInfo::rt, &RtDecl::rt, "RBS_RT_ESCAPE",
                                    "cold_error_path_runs_once", kRuleRtUnbounded,
                                    "hot path"};

class RtPass : public DisciplinePass {
 public:
  explicit RtPass(const std::vector<RtUnit>& units) : DisciplinePass(units, kRtFamily) {}

 private:
  void scan_body(std::size_t g, const std::string& where) override {
    const std::vector<Token>& t = graph().toks(g);
    const FunctionInfo& info = graph().fn(g);
    const std::size_t unit = graph().unit_of(g);

    for (std::size_t i = info.body_begin + 1;
         i < info.body_end && i < t.size(); ++i) {
      const Token& tok = t[i];
      if (tok.kind != TokKind::kIdent) continue;

      if (tok.text == "throw") {
        report(unit, kRuleRtUnbounded, tok.line,
               "`throw` in " + where + "; hot paths must not unwind "
               "(return a Status/Expected instead)");
        continue;
      }
      if (tok.text == "new" || tok.text == "delete") {
        if (tok.text == "delete" && i > 0 && is_punct(t[i - 1], "=")) continue;
        report(unit, kRuleRtAlloc, tok.line,
               "`" + tok.text + "` in " + where +
                   "; hot paths must not touch the heap");
        continue;
      }
      if (stream_idents().count(tok.text) > 0) {
        report(unit, kRuleRtBlock, tok.line,
               "stream `" + tok.text + "` in " + where +
                   "; hot paths must not perform I/O");
        continue;
      }
      if (constructs_type(t, i, guard_types())) {
        report(unit, kRuleRtBlock, tok.line,
               "constructs `" + tok.text + "` in " + where +
                   "; hot paths must not lock or open files");
        continue;
      }
      if (constructs_type(t, i, alloc_types())) {
        report(unit, kRuleRtAlloc, tok.line,
               "constructs `" + tok.text + "` in " + where +
                   "; hoist it into a reusable scratch buffer "
                   "(growth of pre-sized containers is fine)");
        continue;
      }

      if (!is_call(t, i)) continue;
      const CallSite site = call_site(t, i);
      if (site.member && blocking_members().count(tok.text) > 0) {
        report(unit, kRuleRtBlock, tok.line,
               "member call `." + tok.text + "()` in " + where +
                   "; hot paths must not block");
        continue;
      }
      if (!site.member) {
        if (alloc_calls().count(tok.text) > 0) {
          report(unit, kRuleRtAlloc, tok.line,
                 "call to `" + tok.text + "` in " + where +
                     "; hot paths must not touch the heap");
          continue;
        }
        if (blocking_calls().count(tok.text) > 0) {
          report(unit, kRuleRtBlock, tok.line,
                 "call to `" + tok.text + "` in " + where +
                     "; hot paths must not block");
          continue;
        }
      }

      // A member call through an explicit receiver (`x.size()`) fans out to
      // every same-name member, so it is descended for violations but kept
      // out of the cycle check: accessor wrappers like
      // `std::size_t size() const { return tasks_.size(); }` would otherwise
      // read as self-recursion. Unqualified, `X::f`, and `this->f` calls are
      // confident edges and do feed the cycle check.
      const bool confident =
          !site.member || (i >= 2 && t[i - 2].kind == TokKind::kIdent && t[i - 2].text == "this");
      for (std::size_t callee : follow(g, tok.text, site))
        if (confident) edges_[g].push_back({callee, tok.line, tok.text});
    }
  }

  /// Any cycle among reached functions means unbounded stack depth.
  void finish() override {
    enum : std::uint8_t { kWhite, kGray, kBlack };
    std::vector<std::uint8_t> color(graph().size(), kWhite);
    std::set<std::pair<std::size_t, std::size_t>> reported;

    struct Frame {
      std::size_t g;
      std::size_t next_edge = 0;
    };
    std::vector<Frame> stack;
    for (std::size_t start = 0; start < graph().size(); ++start) {
      if (root_of(start) == kUnreached || color[start] != kWhite) continue;
      stack.push_back({start});
      color[start] = kGray;
      while (!stack.empty()) {
        Frame& frame = stack.back();
        auto it = edges_.find(frame.g);
        const std::vector<CallEdge>* out = it == edges_.end() ? nullptr : &it->second;
        if (out == nullptr || frame.next_edge >= out->size()) {
          color[frame.g] = kBlack;
          stack.pop_back();
          continue;
        }
        const CallEdge& edge = (*out)[frame.next_edge++];
        if (color[edge.to] == kGray) {
          if (reported.emplace(frame.g, edge.to).second)
            report(graph().unit_of(frame.g), kRuleRtUnbounded, edge.line,
                   "call to `" + edge.callee + "` in `" + graph().fn(frame.g).name +
                       "` closes a recursion cycle reachable from hot path `" +
                       graph().fn(root_of(frame.g)).name +
                       "`; stack depth must be statically bounded");
          continue;
        }
        if (color[edge.to] == kWhite) {
          color[edge.to] = kGray;
          stack.push_back({edge.to});
        }
      }
    }
  }

  std::map<std::size_t, std::vector<CallEdge>> edges_;  ///< confident edges, in call order
};

}  // namespace

std::vector<Diagnostic> rt_check(const std::vector<RtUnit>& units) {
  return RtPass(units).run();
}

}  // namespace rbs::lint
