#include "rbs_lint/det.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace rbs::lint {

namespace {

// The unordered container templates whose iteration order is bucket-salted.
const std::set<std::string>& unordered_types() {
  static const std::set<std::string> k = {"unordered_map", "unordered_set",
                                          "unordered_multimap", "unordered_multiset"};
  return k;
}

// Member calls that begin an iteration over the receiver.
const std::set<std::string>& iteration_members() {
  static const std::set<std::string> k = {"begin",  "end",  "cbegin", "cend",
                                          "rbegin", "rend", "crbegin", "crend"};
  return k;
}

// Clock types: mentioning one on a det path is a wall-clock dependency.
const std::set<std::string>& clock_idents() {
  static const std::set<std::string> k = {"steady_clock", "system_clock",
                                          "high_resolution_clock"};
  return k;
}

// C wall-clock reads (and TZ-dependent decompositions of them).
const std::set<std::string>& clock_calls() {
  static const std::set<std::string> k = {"time",      "clock",     "gettimeofday",
                                          "clock_gettime", "localtime", "gmtime",
                                          "ctime",     "mktime"};
  return k;
}

// Ambient / global-state RNG calls: no per-item stream, not reproducible.
const std::set<std::string>& rng_calls() {
  static const std::set<std::string> k = {"rand",    "srand",   "rand_r", "random",
                                          "srandom", "drand48", "lrand48", "mrand48"};
  return k;
}

// std <random> engines: default construction seeds from an implementation
// constant but is the gateway drug to random_device seeding, and a seeded
// engine is what the discipline demands -- so only *default* construction is
// flagged (see scan_body).
const std::set<std::string>& engine_types() {
  static const std::set<std::string> k = {
      "mt19937",      "mt19937_64",   "minstd_rand", "minstd_rand0",
      "ranlux24",     "ranlux48",     "knuth_b",     "default_random_engine"};
  return k;
}

/// Final identifier of the range expression in `for (decl : expr)`: the
/// last identifier at paren depth 1 before the closing ')'. Returns "" when
/// the group has no top-level ':' (an ordinary for loop).
std::string range_for_target(const std::vector<Token>& t, std::size_t open_paren) {
  int depth = 0;
  bool past_colon = false;
  std::string last;
  for (std::size_t i = open_paren; i < t.size(); ++i) {
    if (is_punct(t[i], "(")) { ++depth; continue; }
    if (is_punct(t[i], ")")) {
      if (--depth == 0) return past_colon ? last : std::string();
      continue;
    }
    if (depth == 1 && is_punct(t[i], ":")) { past_colon = true; continue; }
    if (past_colon && t[i].kind == TokKind::kIdent) last = t[i].text;
  }
  return {};
}

/// Identifiers declared `double x` / `float x` inside [begin, end):
/// candidate floating-point accumulators for det-fp-reassoc.
std::set<std::string> fp_locals(const std::vector<Token>& t, std::size_t begin,
                                std::size_t end) {
  std::set<std::string> out;
  for (std::size_t i = begin; i + 1 < end; ++i)
    if (t[i].kind == TokKind::kIdent && (t[i].text == "double" || t[i].text == "float") &&
        t[i + 1].kind == TokKind::kIdent)
      out.insert(t[i + 1].text);
  return out;
}

const DisciplineFamily kDetFamily = {&FunctionInfo::det, &RtDecl::det, "RBS_DET_ESCAPE",
                                     "watchdog_deadline_never_in_output", kRuleDetWallclock,
                                     "det path"};

class DetPass : public DisciplinePass {
 public:
  explicit DetPass(const std::vector<RtUnit>& units) : DisciplinePass(units, kDetFamily) {
    for (const RtUnit& unit : units) collect_unordered_names(unit.lexed->tokens);
  }

 private:
  /// Records every identifier declared with an unordered container type
  /// anywhere in the unit: `std::unordered_map<K, V> index_;` records
  /// `index_`. Names are pooled across units (final-identifier matching, the
  /// mutex-identity approximation), so a member declared in a header flags
  /// iteration from the implementation file. Aliases (`using M =
  /// unordered_map<...>`) are not chased -- the documented limit.
  void collect_unordered_names(const std::vector<Token>& t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent || unordered_types().count(t[i].text) == 0)
        continue;
      std::size_t j = i + 1;
      if (j < t.size() && is_punct(t[j], "<")) j = skip_group(t, j, "<", ">");
      if (j < t.size() && t[j].kind == TokKind::kIdent)
        unordered_names_.insert(t[j].text);
    }
  }

  void scan_body(std::size_t g, const std::string& where) override {
    const std::vector<Token>& t = graph().toks(g);
    const FunctionInfo& info = graph().fn(g);
    const std::size_t unit = graph().unit_of(g);

    // Argument-group ranges of submit(...) calls in this body: a floating-
    // point accumulation inside one runs on a pool worker, so the reduction
    // order follows completion order, not input order.
    std::vector<std::pair<std::size_t, std::size_t>> submit_ranges;
    for (std::size_t i = info.body_begin + 1; i < info.body_end && i + 1 < t.size(); ++i)
      if (t[i].kind == TokKind::kIdent && t[i].text == "submit" && is_punct(t[i + 1], "("))
        submit_ranges.emplace_back(i + 1, skip_group(t, i + 1, "(", ")"));
    const std::set<std::string> fp_vars =
        submit_ranges.empty()
            ? std::set<std::string>()
            : fp_locals(t, info.body_begin + 1, std::min(info.body_end, t.size()));
    const auto in_submit = [&submit_ranges](std::size_t i) {
      for (const auto& r : submit_ranges)
        if (i > r.first && i < r.second) return true;
      return false;
    };

    for (std::size_t i = info.body_begin + 1;
         i < info.body_end && i < t.size(); ++i) {
      const Token& tok = t[i];

      // det-fp-reassoc: `acc += ...` on a double/float local inside submit().
      // The lexer keeps compound assignment as two tokens (`+` then `=`), so
      // the match is op-punct followed immediately by `=`.
      if (tok.kind == TokKind::kPunct &&
          (tok.text == "+" || tok.text == "-" || tok.text == "*" || tok.text == "/") &&
          i + 1 < t.size() && is_punct(t[i + 1], "=") && i > 0 &&
          t[i - 1].kind == TokKind::kIdent && fp_vars.count(t[i - 1].text) > 0 &&
          in_submit(i)) {
        report(unit, kRuleDetFpReassoc, tok.line,
               "floating-point accumulation `" + t[i - 1].text + " " + tok.text +
                   "=` inside submit(...) in " + where +
                   "; pool workers reduce in completion order -- gather into "
                   "per-item slots and reduce serially");
        continue;
      }

      if (tok.kind != TokKind::kIdent) continue;

      // det-wallclock: clock types and C time reads.
      if (clock_idents().count(tok.text) > 0) {
        report(unit, kRuleDetWallclock, tok.line,
               "`" + tok.text + "` in " + where +
                   "; wall-clock reads are not reproducible -- escape the "
                   "function with RBS_DET_ESCAPE(reason) if the time never "
                   "reaches the result");
        continue;
      }

      // det-rng: ambient randomness.
      if (tok.text == "random_device") {
        report(unit, kRuleDetRng, tok.line,
               "`random_device` in " + where +
                   "; seed from the campaign's SplitMix64 per-item stream "
                   "instead");
        continue;
      }
      // Default-constructed std engine: `std::mt19937_64 e;` (no seed).
      if (engine_types().count(tok.text) > 0 &&
          !(i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")))) {
        std::size_t j = i + 1;
        if (j < t.size() && is_punct(t[j], "<")) j = skip_group(t, j, "<", ">");
        if (j < t.size() && t[j].kind == TokKind::kIdent) {
          const std::size_t after_var = j + 1;
          const bool braced = after_var < t.size() && is_punct(t[after_var], "{");
          const bool parened = after_var < t.size() && is_punct(t[after_var], "(");
          const bool empty_init =
              (braced && after_var + 1 < t.size() && is_punct(t[after_var + 1], "}")) ||
              (parened && after_var + 1 < t.size() && is_punct(t[after_var + 1], ")"));
          if ((!braced && !parened) || empty_init)
            report(unit, kRuleDetRng, t[j].line,
                   "default-seeded `" + tok.text + "` in " + where +
                       "; pass an explicit seed derived from the per-item "
                       "stream");
          continue;
        }
      }

      // det-unordered-iter: range-for over an unordered-declared name.
      if (tok.text == "for" && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
        const std::string target = range_for_target(t, i + 1);
        if (!target.empty() && unordered_names_.count(target) > 0)
          report(unit, kRuleDetUnorderedIter, tok.line,
                 "range-for over unordered container `" + target + "` in " + where +
                     "; bucket order is salted per process -- use an ordered "
                     "container or iterate a deterministic sibling structure");
        // fall through: the group body still gets scanned token by token
      }

      // Calls (including .begin() on unordered names).
      if (!is_call(t, i)) continue;
      const CallSite site = call_site(t, i);
      if (site.member && iteration_members().count(tok.text) > 0 && i >= 2 &&
          t[i - 2].kind == TokKind::kIdent && unordered_names_.count(t[i - 2].text) > 0) {
        report(unit, kRuleDetUnorderedIter, tok.line,
               "`" + t[i - 2].text + "." + tok.text + "()` iterates an unordered "
                   "container in " + where +
                   "; bucket order is salted per process");
        continue;
      }
      if (!site.member && clock_calls().count(tok.text) > 0) {
        report(unit, kRuleDetWallclock, tok.line,
               "call to `" + tok.text + "` in " + where +
                   "; wall-clock reads are not reproducible");
        continue;
      }
      if (!site.member && rng_calls().count(tok.text) > 0) {
        report(unit, kRuleDetRng, tok.line,
               "call to `" + tok.text + "` in " + where +
                   "; global-state RNG has no per-item stream -- use the "
                   "seeded Rng the campaign hands each item");
        continue;
      }

      follow(g, tok.text, site);
    }
  }

  std::set<std::string> unordered_names_;  ///< pooled across units by final identifier
};

}  // namespace

std::vector<Diagnostic> det_check(const std::vector<RtUnit>& units) {
  return DetPass(units).run();
}

}  // namespace rbs::lint
