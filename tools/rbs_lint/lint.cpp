#include "rbs_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "campaign/pool.hpp"
#include "rbs_lint/api.hpp"
#include "rbs_lint/det.hpp"
#include "rbs_lint/rt.hpp"
#include "rbs_lint/semantic.hpp"
#include "rbs_lint/token.hpp"

namespace rbs::lint {

namespace {

// ---------------------------------------------------------------------------
// Shared predicates
// ---------------------------------------------------------------------------

std::string lower_no_separators(const std::string& literal) {
  std::string s;
  for (char c : literal)
    if (c != '\'') s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool is_float_literal(const std::string& literal) {
  const std::string s = lower_no_separators(literal);
  if (s.rfind("0x", 0) == 0) return s.find('p') != std::string::npos;
  return s.find('.') != std::string::npos || s.find('e') != std::string::npos;
}

double literal_value(const std::string& literal) {
  return std::strtod(lower_no_separators(literal).c_str(), nullptr);
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  if (path.size() < suffix.size()) return false;
  return path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool path_has_component(const std::string& path, const std::string& component) {
  const std::filesystem::path p(path);
  for (const auto& part : p)
    if (part.string() == component) return true;
  return false;
}

bool is_header(const std::string& path) {
  return path_ends_with(path, ".hpp") || path_ends_with(path, ".h");
}

// ---------------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------------

constexpr const char* kRuleFloatEq = "float-eq";
constexpr const char* kRuleEpsilon = "epsilon-literal";
constexpr const char* kRuleNodiscard = "nodiscard";
constexpr const char* kRuleNondet = "nondet";
constexpr const char* kRuleInclude = "include-hygiene";
constexpr const char* kRuleLockDiscipline = "lock-discipline";
constexpr const char* kRuleUncheckedExpected = "unchecked-expected";
constexpr const char* kRuleSignalSafety = "signal-safety";
constexpr const char* kRuleRaiiGuard = "raii-guard";

class Checker {
 public:
  /// Takes the prebuilt semantic index by value: the extra_guarded facts are
  /// folded into this private copy while the caller's index stays pristine
  /// for the whole-program passes.
  Checker(const std::string& path, const Lexed& lexed, FileIndex index,
          const Options& options, const std::vector<std::string>& extra_guarded)
      : path_(path), lexed_(lexed), index_(std::move(index)) {
    for (const std::string& r : options.rules) enabled_.insert(r);
    for (const std::string& fact : extra_guarded) {
      // "class|member|mutex" facts harvested from resolved includes.
      const std::size_t a = fact.find('|');
      const std::size_t b = fact.find('|', a == std::string::npos ? 0 : a + 1);
      if (a == std::string::npos || b == std::string::npos) continue;
      GuardedMember member;
      member.class_name = fact.substr(0, a);
      member.name = fact.substr(a + 1, b - a - 1);
      member.mutex = fact.substr(b + 1);
      if (index_.find_guarded(member.name) == nullptr)
        index_.guarded.push_back(std::move(member));
    }
    suppressions_ = allow_comments(lexed);
  }

  std::vector<Diagnostic> run() {
    check_float_eq();
    check_epsilon_literals();
    check_nodiscard();
    check_nondeterminism();
    check_include_hygiene();
    check_lock_discipline();
    check_unchecked_expected();
    check_signal_safety();
    check_raii_guard();
    std::sort(diags_.begin(), diags_.end(), [](const Diagnostic& a, const Diagnostic& b) {
      if (a.line != b.line) return a.line < b.line;
      return a.rule < b.rule;
    });
    return std::move(diags_);
  }

 private:
  bool rule_enabled(const std::string& rule) const {
    return enabled_.empty() || enabled_.count(rule) > 0;
  }

  void report(const std::string& rule, int line, std::string message) {
    if (!rule_enabled(rule) || allowed(suppressions_, rule, line)) return;
    diags_.push_back({path_, line, rule, std::move(message)});
  }

  const std::vector<Token>& toks() const { return lexed_.tokens; }

  bool is_punct_at(std::size_t i, const char* s) const {
    const auto& t = toks();
    return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == s;
  }

  bool is_ident_at(std::size_t i, const char* s) const {
    const auto& t = toks();
    return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == s;
  }

  // --- float-eq ------------------------------------------------------------
  void check_float_eq() {
    const auto& t = toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kPunct || (t[i].text != "==" && t[i].text != "!=")) continue;
      const Token* literal = nullptr;
      if (i > 0 && t[i - 1].kind == TokKind::kNumber && is_float_literal(t[i - 1].text))
        literal = &t[i - 1];
      if (i + 1 < t.size() && t[i + 1].kind == TokKind::kNumber &&
          is_float_literal(t[i + 1].text))
        literal = &t[i + 1];
      if (literal == nullptr) continue;
      report(kRuleFloatEq, t[i].line,
             "raw `" + t[i].text + "` against floating-point literal " + literal->text +
                 "; use approx_eq/definitely_* from support/tolerance.hpp");
    }
  }

  // --- epsilon-literal -----------------------------------------------------
  void check_epsilon_literals() {
    if (path_ends_with(path_, "support/tolerance.hpp")) return;  // the one home
    constexpr double kEpsilonMagnitude = 1e-5;
    for (const Token& tok : toks()) {
      if (tok.kind != TokKind::kNumber || !is_float_literal(tok.text)) continue;
      const double v = literal_value(tok.text);
      const double mag = v < 0.0 ? -v : v;
      if (mag > 0.0 && mag < kEpsilonMagnitude)
        report(kRuleEpsilon, tok.line,
               "inline epsilon literal " + tok.text +
                   "; name the tolerance in support/tolerance.hpp instead");
    }
  }

  // --- nodiscard -----------------------------------------------------------
  // Header declarations whose return type is Status or Expected<...> must
  // carry [[nodiscard]]; otherwise call sites silently drop error verdicts.
  void check_nodiscard() {
    if (!is_header(path_)) return;
    const auto& t = toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent || (t[i].text != "Status" && t[i].text != "Expected"))
        continue;
      if (i + 1 >= t.size()) continue;
      // Qualified access (Status::error) or definitions (class Status) are
      // not return-type positions.
      if (t[i + 1].kind == TokKind::kPunct && t[i + 1].text == "::") continue;
      if (i > 0 && t[i - 1].kind == TokKind::kIdent &&
          (t[i - 1].text == "class" || t[i - 1].text == "struct" || t[i - 1].text == "enum"))
        continue;
      // Expression and parameter positions: `return Status...`, `(Status x`,
      // `, Expected<T> x`, `new Status`, template arguments `<Status`.
      if (i > 0) {
        const std::string& prev = t[i - 1].text;
        if (prev == "return" || prev == "(" || prev == "," || prev == "new" || prev == "<")
          continue;
      }
      std::size_t j = i + 1;
      if (t[i].text == "Expected") {
        if (t[j].kind != TokKind::kPunct || t[j].text != "<") continue;
        int depth = 0;
        for (; j < t.size(); ++j) {
          if (t[j].kind != TokKind::kPunct) continue;
          if (t[j].text == "<") ++depth;
          if (t[j].text == ">" && --depth == 0) break;
        }
        if (j >= t.size()) continue;
        ++j;
      }
      while (j < t.size() && t[j].kind == TokKind::kPunct && t[j].text == "&") ++j;
      while (j < t.size() && t[j].kind == TokKind::kIdent && t[j].text == "const") ++j;
      if (j + 1 >= t.size() || t[j].kind != TokKind::kIdent) continue;
      if (t[j + 1].kind != TokKind::kPunct || t[j + 1].text != "(") continue;
      if (has_nodiscard_before(i)) continue;
      report(kRuleNodiscard, t[i].line,
             "`" + t[j].text + "` returns " + t[i].text +
                 " but is not [[nodiscard]]; errors could be silently dropped");
    }
  }

  bool has_nodiscard_before(std::size_t i) const {
    static const std::set<std::string> kSpecifiers = {"static",   "inline", "constexpr",
                                                      "virtual",  "friend", "explicit",
                                                      "const"};
    const auto& t = toks();
    std::size_t pos = i;
    while (pos > 0) {
      const Token& p = t[pos - 1];
      if (p.kind == TokKind::kIdent && kSpecifiers.count(p.text) > 0) {
        --pos;
        continue;
      }
      // Namespace qualification of the return type itself: rbs::Status f();
      if (p.kind == TokKind::kPunct && p.text == "::" && pos >= 2) {
        pos -= 2;
        continue;
      }
      break;
    }
    if (pos == 0) return false;
    const Token& p = t[pos - 1];
    if (p.kind != TokKind::kPunct || p.text != "]]") return false;
    for (std::size_t k = pos - 1; k > 0; --k) {
      if (t[k - 1].kind == TokKind::kPunct && t[k - 1].text == "[[") return true;
      if (t[k - 1].kind == TokKind::kIdent && t[k - 1].text == "nodiscard") continue;
      if (t[k - 1].kind == TokKind::kPunct && t[k - 1].text == "]]") return false;
    }
    return false;
  }

  // --- nondet --------------------------------------------------------------
  // Analysis and simulation must be reproducible bit-for-bit: no wall clock,
  // no C randomness, raw engines only inside the seeded gen/rng.hpp wrapper.
  void check_nondeterminism() {
    if (!path_has_component(path_, "src")) return;
    const bool rng_home = path_ends_with(path_, "gen/rng.hpp");
    static const std::set<std::string> kCallBanned = {"rand",    "srand",   "drand48",
                                                      "lrand48", "time",    "clock",
                                                      "gettimeofday"};
    static const std::set<std::string> kAlwaysBanned = {
        "random_device", "system_clock", "steady_clock", "high_resolution_clock"};
    static const std::set<std::string> kEngines = {
        "mt19937",  "mt19937_64", "default_random_engine", "minstd_rand",
        "minstd_rand0", "ranlux24", "ranlux48", "knuth_b"};
    const auto& t = toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      const bool member_access =
          i > 0 && t[i - 1].kind == TokKind::kPunct && t[i - 1].text == ".";
      if (member_access) continue;  // e.g. `event.time`, `stats.clock`
      const bool called =
          i + 1 < t.size() && t[i + 1].kind == TokKind::kPunct && t[i + 1].text == "(";
      if (kCallBanned.count(t[i].text) > 0 && called)
        report(kRuleNondet, t[i].line,
               "call to `" + t[i].text + "` is nondeterministic; draw through rbs::Rng "
               "with an explicit seed");
      else if (kAlwaysBanned.count(t[i].text) > 0)
        report(kRuleNondet, t[i].line,
               "`" + t[i].text + "` is nondeterministic; analysis code must be "
               "reproducible bit-for-bit");
      else if (!rng_home && kEngines.count(t[i].text) > 0)
        report(kRuleNondet, t[i].line,
               "raw engine `" + t[i].text + "` outside gen/rng.hpp; use rbs::Rng so "
               "seeding conventions stay uniform");
    }
  }

  // --- include-hygiene -----------------------------------------------------
  void check_include_hygiene() {
    const auto& t = toks();
    std::set<std::string> seen_includes;
    bool pragma_once = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind == TokKind::kPragma && t[i].text == "once") pragma_once = true;
      if (t[i].kind == TokKind::kInclude) {
        if (t[i].text == "<bits/stdc++.h>")
          report(kRuleInclude, t[i].line,
                 "<bits/stdc++.h> is non-standard and bloats every TU; include what you use");
        if (!seen_includes.insert(t[i].text).second)
          report(kRuleInclude, t[i].line, "duplicate include of " + t[i].text);
      }
      if (is_header(path_) && t[i].kind == TokKind::kIdent && t[i].text == "using" &&
          i + 1 < t.size() && t[i + 1].kind == TokKind::kIdent &&
          t[i + 1].text == "namespace")
        report(kRuleInclude, t[i].line,
               "using-namespace in a header leaks into every includer");
    }
    if (is_header(path_) && !pragma_once)
      report(kRuleInclude, 1, "header is missing #pragma once");
  }

  // --- lock-discipline -----------------------------------------------------
  // Every touch of a member annotated RBS_GUARDED_BY(m) must happen while an
  // RAII guard on m is live in an enclosing scope, or inside a function whose
  // definition is annotated RBS_REQUIRES(m) / RBS_ACQUIRE(m) / RBS_RELEASE(m).
  void check_lock_discipline() {
    if (index_.guarded.empty()) return;
    const auto& t = toks();
    for (const FunctionInfo& fn : index_.functions) {
      if (fn.no_analysis || fn.body_end <= fn.body_begin) continue;
      GuardTracker tracker;
      int depth = 1;
      for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
        const Token& tok = t[i];
        if (tok.kind == TokKind::kPunct) {
          if (tok.text == "{") ++depth;
          if (tok.text == "}") tracker.close_scope(--depth);
          continue;
        }
        if (tok.kind != TokKind::kIdent) continue;
        tracker.observe(t, i, depth);
        const GuardedMember* g = index_.find_guarded(tok.text);
        if (g == nullptr) continue;
        // Declaration sites (`T member RBS_GUARDED_BY(m);` in a local struct)
        // and qualified type names are not accesses.
        if (is_ident_at(i + 1, "RBS_GUARDED_BY") || is_ident_at(i + 1, "RBS_PT_GUARDED_BY"))
          continue;
        if (i > 0 && is_punct_at(i - 1, "::")) continue;
        const bool qualified =
            i > 0 && (is_punct_at(i - 1, ".") || is_punct_at(i - 1, "->"));
        // A bare identifier only refers to the member from inside the
        // declaring class's own member functions.
        if (!qualified && fn.class_name != g->class_name) continue;
        const bool annotated =
            std::find(fn.held_mutexes.begin(), fn.held_mutexes.end(), g->mutex) !=
            fn.held_mutexes.end();
        if (annotated || tracker.holds(g->mutex)) continue;
        report(kRuleLockDiscipline, tok.line,
               "`" + g->class_name + "::" + g->name + "` is RBS_GUARDED_BY(" + g->mutex +
                   ") but no guard on `" + g->mutex +
                   "` is live here; hold a LockGuard/UniqueLock or annotate the "
                   "function RBS_REQUIRES(" +
                   g->mutex + ")");
      }
    }
  }

  // --- unchecked-expected --------------------------------------------------
  // An Expected<T>/Status local consumed through its payload (.value() /
  // .message()) with no ok-ness test earlier on the (textual) path. The model
  // is linear, not branch-aware: any earlier `!e`, `e.is_ok()`,
  // `e.has_value()`, `if (e)` or `e ? ...` counts as a check.
  void check_unchecked_expected() {
    const auto& t = toks();
    for (const FunctionInfo& fn : index_.functions) {
      if (fn.body_end <= fn.body_begin) continue;
      struct Local {
        bool is_expected = false;  // false: Status
        bool checked = false;
      };
      std::map<std::string, Local> locals;
      for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
        const Token& tok = t[i];
        if (tok.kind != TokKind::kIdent) continue;
        // Declarations: `Expected<T> var ...` / `Status var ...`.
        if (tok.text == "Expected" && is_punct_at(i + 1, "<")) {
          int angle = 0;
          std::size_t j = i + 1;
          for (; j < t.size(); ++j) {
            if (is_punct_at(j, "<")) ++angle;
            if (is_punct_at(j, ">") && --angle == 0) break;
          }
          if (j + 1 < t.size() && t[j + 1].kind == TokKind::kIdent)
            locals[t[j + 1].text] = {true, false};
          continue;
        }
        if (tok.text == "Status" && i + 1 < t.size() && t[i + 1].kind == TokKind::kIdent &&
            t[i + 1].text != "error" && !(i > 0 && is_punct_at(i - 1, "::"))) {
          locals[t[i + 1].text] = {false, false};
          continue;
        }
        auto it = locals.find(tok.text);
        if (it == locals.end()) continue;
        Local& local = it->second;
        const char* payload = local.is_expected ? "value" : "message";
        // Consumption: `var.value()` / `std::move(var).value()`.
        const bool direct_consume = is_punct_at(i + 1, ".") &&
                                    is_ident_at(i + 2, payload) && is_punct_at(i + 3, "(");
        const bool moved_consume = i >= 2 && is_punct_at(i - 1, "(") &&
                                   is_ident_at(i - 2, "move") && is_punct_at(i + 1, ")") &&
                                   is_punct_at(i + 2, ".") && is_ident_at(i + 3, payload);
        if (direct_consume || moved_consume) {
          if (!local.checked) {
            report(kRuleUncheckedExpected, tok.line,
                   std::string("`") + tok.text + "." + payload + "()` consumes " +
                       (local.is_expected ? "an Expected" : "a Status") +
                       " that was never tested; check ok()/has_value() (or `if (" +
                       tok.text + ")`) first");
            local.checked = true;  // one report per unchecked local
          }
          continue;
        }
        // Checks.
        const bool negated = i > 0 && is_punct_at(i - 1, "!");
        // .status()/.error_message() hand the error channel to someone else;
        // that delegation counts as a check in this linear model.
        const bool method_check =
            is_punct_at(i + 1, ".") &&
            (is_ident_at(i + 2, "is_ok") || is_ident_at(i + 2, "has_value") ||
             is_ident_at(i + 2, "ok") || is_ident_at(i + 2, "status") ||
             is_ident_at(i + 2, "error_message"));
        const bool ternary = is_punct_at(i + 1, "?");
        const bool bool_context =
            i > 0 &&
            (is_punct_at(i - 1, "(") || is_punct_at(i - 1, "&&") || is_punct_at(i - 1, "||")) &&
            (is_punct_at(i + 1, ")") || is_punct_at(i + 1, "&&") || is_punct_at(i + 1, "||") ||
             is_punct_at(i + 1, "?"));
        if (negated || method_check || ternary || bool_context) local.checked = true;
      }
    }
  }

  // --- signal-safety -------------------------------------------------------
  // Functions reachable from a registered signal handler may only perform
  // async-signal-safe work: lock-free atomics, a short allowlist of POSIX
  // calls, and calls to other local functions (which are checked in turn).
  // Locks, allocation, stdio and exceptions are flagged.
  void check_signal_safety() {
    const auto& t = toks();
    if (index_.functions.empty()) return;
    std::map<std::string, std::vector<std::size_t>> by_name;
    for (std::size_t f = 0; f < index_.functions.size(); ++f)
      by_name[index_.functions[f].name].push_back(f);

    // Roots: function names passed to signal()/sigaction().
    std::map<std::size_t, std::string> root_of;  // function index -> handler name
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent ||
          (t[i].text != "signal" && t[i].text != "sigaction"))
        continue;
      if (!is_punct_at(i + 1, "(")) continue;
      int depth = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (is_punct_at(j, "(")) ++depth;
        if (is_punct_at(j, ")") && --depth == 0) break;
        if (t[j].kind != TokKind::kIdent) continue;
        auto hit = by_name.find(t[j].text);
        if (hit == by_name.end()) continue;
        for (std::size_t f : hit->second)
          if (root_of.emplace(f, t[j].text).second) queue.push_back(f);
      }
    }
    // Reachability through the same-file call graph.
    while (!queue.empty()) {
      const std::size_t f = queue.back();
      queue.pop_back();
      const FunctionInfo& fn = index_.functions[f];
      for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
        if (t[i].kind != TokKind::kIdent || !is_punct_at(i + 1, "(")) continue;
        auto hit = by_name.find(t[i].text);
        if (hit == by_name.end()) continue;
        for (std::size_t callee : hit->second)
          if (root_of.emplace(callee, root_of[f]).second) queue.push_back(callee);
      }
    }

    static const std::set<std::string> kMemberAllow = {
        "store", "load", "exchange", "compare_exchange_weak", "compare_exchange_strong",
        "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
        "test_and_set", "clear", "test", "count_down"};
    static const std::set<std::string> kFreeAllow = {
        "_exit", "_Exit", "abort", "raise", "kill", "signal", "sigaction",
        "sigemptyset", "sigfillset", "sigaddset", "sigdelset", "sigprocmask",
        "write", "read", "close", "fsync"};
    static const std::set<std::string> kControl = {"if",     "while",  "for",   "switch",
                                                   "catch",  "sizeof", "alignof", "return",
                                                   "decltype", "noexcept"};
    for (const auto& [f, handler] : root_of) {
      const FunctionInfo& fn = index_.functions[f];
      for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
        const Token& tok = t[i];
        if (tok.kind != TokKind::kIdent) continue;
        if (tok.text == "throw" || tok.text == "new" || tok.text == "delete") {
          report(kRuleSignalSafety, tok.line,
                 "`" + tok.text + "` in `" + fn.name + "`, reachable from signal handler `" +
                     handler + "`; handlers must stay async-signal-safe");
          continue;
        }
        if (!is_punct_at(i + 1, "(")) continue;
        if (kControl.count(tok.text) > 0) continue;
        const bool member = i > 0 && (is_punct_at(i - 1, ".") || is_punct_at(i - 1, "->"));
        if (member) {
          if (kMemberAllow.count(tok.text) == 0)
            report(kRuleSignalSafety, tok.line,
                   "member call `." + tok.text + "()` in `" + fn.name +
                       "`, reachable from signal handler `" + handler +
                       "`; only lock-free atomics are async-signal-safe");
          continue;
        }
        if (by_name.count(tok.text) > 0) continue;  // checked via reachability
        if (kFreeAllow.count(tok.text) > 0) continue;
        report(kRuleSignalSafety, tok.line,
               "call to `" + tok.text + "` in `" + fn.name +
                   "`, reachable from signal handler `" + handler +
                   "`; not on the async-signal-safe allowlist");
      }
    }
  }

  // --- raii-guard ----------------------------------------------------------
  // Bare `.lock()` / `.unlock()` / `.try_lock()` on anything that is not a
  // tracked RAII guard variable: manual lock management loses the guarantee
  // that every exit path releases the mutex.
  void check_raii_guard() {
    const auto& t = toks();
    for (const FunctionInfo& fn : index_.functions) {
      if (fn.body_end <= fn.body_begin) continue;
      GuardTracker tracker;
      int depth = 1;
      for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
        const Token& tok = t[i];
        if (tok.kind == TokKind::kPunct) {
          if (tok.text == "{") ++depth;
          if (tok.text == "}") tracker.close_scope(--depth);
          continue;
        }
        if (tok.kind != TokKind::kIdent) continue;
        tracker.observe(t, i, depth);
        if (!(is_punct_at(i + 1, ".") || is_punct_at(i + 1, "->"))) continue;
        if (!(is_ident_at(i + 2, "lock") || is_ident_at(i + 2, "unlock") ||
              is_ident_at(i + 2, "try_lock")))
          continue;
        if (!is_punct_at(i + 3, "(")) continue;
        if (tracker.is_guard_var(tok.text)) continue;
        report(kRuleRaiiGuard, t[i + 2].line,
               "bare `" + tok.text + "." + t[i + 2].text +
                   "()`; use LockGuard/UniqueLock so every exit path releases the mutex");
      }
    }
  }

  std::string path_;
  const Lexed& lexed_;
  FileIndex index_;
  std::set<std::string> enabled_;
  std::map<int, std::set<std::string>> suppressions_;
  std::vector<Diagnostic> diags_;
};

bool lintable_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

bool excluded(const std::string& path, const std::vector<std::string>& excludes) {
  for (const std::string& fragment : excludes)
    if (path.find(fragment) != std::string::npos) return true;
  return false;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<RuleInfo> all_rules() {
  return {
      {kRuleFloatEq,
       "no raw ==/!= against floating-point literals; use support/tolerance.hpp"},
      {kRuleEpsilon,
       "no inline comparison-epsilon literals (|v| < 1e-5) outside support/tolerance.hpp"},
      {kRuleNodiscard,
       "header declarations returning Status/Expected must be [[nodiscard]]"},
      {kRuleNondet,
       "no wall-clock or unseeded randomness in src/; raw engines only in gen/rng.hpp"},
      {kRuleInclude,
       "#pragma once in headers, no <bits/stdc++.h>, no duplicate includes, "
       "no using-namespace in headers"},
      {kRuleLockDiscipline,
       "RBS_GUARDED_BY members only touched under a live guard on their mutex "
       "or inside an RBS_REQUIRES function"},
      {kRuleUncheckedExpected,
       "Expected<T>/Status locals must pass an ok()/has_value() test before "
       ".value()/.message() is consumed"},
      {kRuleSignalSafety,
       "functions reachable from registered signal handlers restricted to the "
       "async-signal-safe allowlist"},
      {kRuleRaiiGuard,
       "no bare mutex .lock()/.unlock(); locking goes through LockGuard/UniqueLock"},
      {kRuleRtAlloc,
       "no heap allocation (new/malloc/allocating std construction) reachable "
       "from RBS_HOT_PATH roots"},
      {kRuleRtBlock,
       "no mutex/condvar operations or blocking I/O reachable from "
       "RBS_HOT_PATH roots"},
      {kRuleRtUnbounded,
       "no throw, recursion cycles, or reason-less RBS_RT_ESCAPE reachable "
       "from RBS_HOT_PATH roots"},
      {kRuleDetUnorderedIter,
       "no unordered_{map,set} iteration reachable from RBS_DET_PATH roots "
       "(det.hpp: bucket order is salted per process)"},
      {kRuleDetWallclock,
       "no steady_clock/system_clock/time() reads reachable from RBS_DET_PATH "
       "(watchdog arming goes behind RBS_DET_ESCAPE(reason))"},
      {kRuleDetRng,
       "no rand()/random_device/default-seeded engines reachable from "
       "RBS_DET_PATH; seeded per-item streams only"},
      {kRuleDetFpReassoc,
       "no floating-point accumulation inside submit(...) reachable from "
       "RBS_DET_PATH; gather into per-item slots and reduce serially"},
      {kRuleApiUnreached,
       "every free function with external linkage under src/ is reached from "
       "a main in the scan (api.hpp), or allowed with a reason"},
  };
}

std::vector<std::string> all_rule_names() {
  std::vector<std::string> names;
  for (const RuleInfo& rule : all_rules()) names.push_back(rule.name);
  return names;
}

std::string normalize_path(const std::string& path) {
  if (path.empty()) return path;
  std::string normal = std::filesystem::path(path).lexically_normal().generic_string();
  // lexically_normal turns "./" into "."; a lone dot is only useful as-is.
  if (normal.size() > 2 && normal.rfind("./", 0) == 0) normal = normal.substr(2);
  return normal;
}

namespace {

/// Runs the whole-program passes (rt, det, api) over `units` and appends the
/// diagnostics the caller's rule selection keeps. The passes handle
/// `// rbs-lint: allow(...)` themselves; rule enabling and baselines stay
/// the caller's business, matching the per-file rules.
void append_whole_program(std::vector<Diagnostic>& diags, const std::vector<RtUnit>& units,
                          const Options& options) {
  const std::set<std::string> enabled(options.rules.begin(), options.rules.end());
  for (const auto check : {rt_check, det_check, api_check})
    for (Diagnostic& d : check(units))
      if (enabled.empty() || enabled.count(d.rule) > 0) diags.push_back(std::move(d));
}

}  // namespace

std::vector<Diagnostic> lint_source(const std::string& path, const std::string& text,
                                    const Options& options,
                                    const std::vector<std::string>& extra_guarded) {
  const Lexed lexed = lex(text);
  const FileIndex index = build_index(lexed.tokens);
  std::vector<Diagnostic> diags = Checker(path, lexed, index, options, extra_guarded).run();
  // The whole-program passes over this one unit, so string-driven tests and
  // one-file invocations see their rules; lint_paths runs them over every
  // unit instead.
  append_whole_program(diags, {{path, &lexed, &index}}, options);
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return diags;
}

std::vector<Diagnostic> lint_paths(const std::vector<std::string>& paths,
                                   const Options& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> excludes;
  for (const std::string& fragment : options.excludes)
    excludes.push_back(normalize_path(fragment));
  std::vector<std::string> files;
  std::vector<Diagnostic> diags;
  for (const std::string& raw_root : paths) {
    const std::string root = normalize_path(raw_root);
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end; it != end; it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file() && lintable_extension(it->path()))
          files.push_back(normalize_path(it->path().generic_string()));
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(normalize_path(fs::path(root).generic_string()));
    } else {
      diags.push_back({root, 0, "io-error", "no such file or directory"});
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  files.erase(std::remove_if(files.begin(), files.end(),
                             [&](const std::string& f) { return excluded(f, excludes); }),
              files.end());

  // Guarded-member facts per header, harvested on demand when a lintable file
  // quotes it, so lock-discipline in foo.cpp sees RBS_GUARDED_BY declarations
  // from foo.hpp. Shared across workers under --jobs; hence the mutex.
  std::mutex facts_mutex;
  std::map<std::string, std::vector<std::string>> header_facts;
  const auto facts_for = [&](const std::string& header) {
    std::lock_guard<std::mutex> hold(facts_mutex);
    auto it = header_facts.find(header);
    if (it != header_facts.end()) return it->second;
    std::vector<std::string> facts;
    std::ifstream in(header, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const Lexed lexed = lex(buffer.str());
      for (const GuardedMember& g : build_index(lexed.tokens).guarded)
        facts.push_back(g.class_name + "|" + g.name + "|" + g.mutex);
    }
    header_facts.emplace(header, facts);
    return facts;
  };

  // Per-file work: lex once, index once, run the per-file rules. The Lexed
  // and FileIndex are kept so the whole-program passes reuse them instead of
  // lexing a second time. Results live in slots indexed by the sorted file
  // list, so output is byte-identical at any --jobs value.
  struct Unit {
    Lexed lexed;
    FileIndex index;
    std::vector<Diagnostic> diags;
    bool indexed = false;  ///< false for unreadable files
  };
  std::vector<Unit> units(files.size());

  const auto process = [&](std::size_t slot) {
    const std::string& file = files[slot];
    Unit& unit = units[slot];
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      unit.diags.push_back({file, 0, "io-error", "cannot open file"});
      return;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    unit.lexed = lex(text);
    unit.index = build_index(unit.lexed.tokens);
    unit.indexed = true;

    // Resolve quoted includes against the file's directory and its ancestors
    // (the tree compiles with -I src -I tools style include roots).
    std::vector<std::string> extra;
    for (const Token& tok : unit.lexed.tokens) {
      if (tok.kind != TokKind::kInclude || tok.text.size() < 3 || tok.text.front() != '"')
        continue;
      const std::string target = tok.text.substr(1, tok.text.size() - 2);
      fs::path dir = fs::path(file).parent_path();
      for (int up = 0; up < 6; ++up) {
        std::error_code file_ec;
        const fs::path candidate = dir / target;
        if (fs::is_regular_file(candidate, file_ec)) {
          for (std::string& fact : facts_for(normalize_path(candidate.generic_string())))
            extra.push_back(std::move(fact));
          break;
        }
        if (!dir.has_parent_path() || dir.parent_path() == dir) break;
        dir = dir.parent_path();
      }
    }
    unit.diags = Checker(file, unit.lexed, unit.index, options, extra).run();
  };

  if (options.jobs > 1 && files.size() > 1) {
    campaign::ThreadPool pool(options.jobs);
    for (std::size_t slot = 0; slot < files.size(); ++slot)
      pool.submit([&, slot] {
        try {
          process(slot);
        } catch (...) {  // pool jobs must not throw; surface as a diagnostic
          units[slot].diags.assign(
              {{files[slot], 0, "io-error", "internal error while linting"}});
          units[slot].indexed = false;
        }
      });
    pool.wait_idle();
  } else {
    for (std::size_t slot = 0; slot < files.size(); ++slot) process(slot);
  }

  for (const Unit& unit : units)
    diags.insert(diags.end(), unit.diags.begin(), unit.diags.end());

  // Project-wide rt, det and api passes over every unit at once:
  // RBS_HOT_PATH / RBS_DET_PATH / main reachability crosses file
  // boundaries, so they cannot run per file. Serial by design -- the walks
  // are cheap next to lexing.
  std::vector<RtUnit> rt_units;
  for (std::size_t slot = 0; slot < files.size(); ++slot)
    if (units[slot].indexed)
      rt_units.push_back({files[slot], &units[slot].lexed, &units[slot].index});
  append_whole_program(diags, rt_units, options);

  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return diags;
}

std::string format(const Diagnostic& diagnostic) {
  std::ostringstream os;
  os << diagnostic.file << ":" << diagnostic.line << ": error: [" << diagnostic.rule << "] "
     << diagnostic.message;
  return os.str();
}

std::string format_json(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "  {\"file\": \"" << json_escape(d.file) << "\", \"line\": " << d.line
       << ", \"rule\": \"" << json_escape(d.rule) << "\", \"message\": \""
       << json_escape(d.message) << "\"}";
  }
  os << (diagnostics.empty() ? "]\n" : "\n]\n");
  return os.str();
}

std::vector<BaselineEntry> parse_baseline(const std::string& text) {
  std::vector<BaselineEntry> entries;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t a = line.find('|');
    const std::size_t b = a == std::string::npos ? a : line.find('|', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    BaselineEntry entry;
    entry.rule = line.substr(first, a - first);
    entry.path = normalize_path(line.substr(a + 1, b - a - 1));
    entry.message = line.substr(b + 1);
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string to_baseline_line(const Diagnostic& diagnostic) {
  return diagnostic.rule + "|" + diagnostic.file + "|" + diagnostic.message;
}

std::size_t apply_baseline(std::vector<Diagnostic>& diagnostics,
                           const std::vector<BaselineEntry>& baseline) {
  const auto matches = [](const Diagnostic& d, const BaselineEntry& e) {
    if (d.rule != e.rule || d.message != e.message) return false;
    if (d.file == e.path) return true;
    return path_ends_with(d.file, "/" + e.path);
  };
  const std::size_t before = diagnostics.size();
  diagnostics.erase(std::remove_if(diagnostics.begin(), diagnostics.end(),
                                   [&](const Diagnostic& d) {
                                     for (const BaselineEntry& e : baseline)
                                       if (matches(d, e)) return true;
                                     return false;
                                   }),
                    diagnostics.end());
  return before - diagnostics.size();
}

}  // namespace rbs::lint
