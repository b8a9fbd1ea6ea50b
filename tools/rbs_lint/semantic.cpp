#include "rbs_lint/semantic.hpp"

#include <algorithm>
#include <set>

namespace rbs::lint {

namespace {

bool is_kw(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",     "while",  "for",      "switch", "catch",  "sizeof", "alignof",
      "return", "typeid", "decltype", "else",   "do",     "try",    "co_await",
      "co_return", "co_yield", "new",  "delete", "throw",  "noexcept"};
  return kKeywords.count(s) > 0;
}

/// Final identifiers of each top-level comma-separated argument in the paren
/// group opening at `open_paren`.
std::vector<std::string> annotation_arguments(const std::vector<Token>& t,
                                              std::size_t open_paren) {
  std::vector<std::string> args;
  if (open_paren >= t.size() || !is_punct(t[open_paren], "(")) return args;
  int depth = 0;
  std::string last_ident;
  for (std::size_t i = open_paren; i < t.size(); ++i) {
    if (is_punct(t[i], "(")) {
      ++depth;
      continue;
    }
    if (is_punct(t[i], ")")) {
      if (--depth == 0) {
        if (!last_ident.empty()) args.push_back(last_ident);
        return args;
      }
      continue;
    }
    if (depth == 1 && is_punct(t[i], ",")) {
      if (!last_ident.empty()) args.push_back(last_ident);
      last_ident.clear();
      continue;
    }
    if (t[i].kind == TokKind::kIdent) last_ident = t[i].text;
  }
  return args;
}

bool is_class_keyword(const std::string& s) {
  return s == "class" || s == "struct" || s == "union" || s == "enum";
}

/// Annotation macros (RBS_*) and GNU attributes (`__attribute__((flatten))`)
/// decorate a head without naming it; both are stepped over together with
/// their argument groups, so the function or class they precede is indexed.
bool is_annotation_ident(const std::string& s) {
  return s.rfind("RBS_", 0) == 0 || s == "__attribute__";
}

struct Scope {
  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = Kind::kBlock;
  std::string name;
  std::size_t function = SIZE_MAX;  ///< index into FileIndex::functions
};

/// Classifies the statement head [begin, end) that precedes a '{'.
struct HeadInfo {
  Scope::Kind kind = Scope::Kind::kBlock;
  std::string name;                         ///< class/namespace/function name
  std::string qualifier;                    ///< Foo in `Foo::bar(...)`
  std::vector<std::string> held_mutexes;    ///< RBS_REQUIRES/ACQUIRE/RELEASE args
  bool no_analysis = false;
  Discipline rt;
  Discipline det;
};

/// The macros of each annotation family, and the HeadInfo marks they set.
struct FamilyMacros {
  const char* root;
  const char* safe;
  const char* escape;
  Discipline HeadInfo::*marks;
};
const FamilyMacros kFamilyMacros[] = {
    {"RBS_HOT_PATH", "RBS_RT_SAFE", "RBS_RT_ESCAPE", &HeadInfo::rt},
    {"RBS_DET_PATH", "RBS_DET_SAFE", "RBS_DET_ESCAPE", &HeadInfo::det},
};

HeadInfo classify_head(const std::vector<Token>& t, std::size_t begin, std::size_t end) {
  HeadInfo info;
  if (begin >= end) return info;  // bare '{' -> block

  const Token& prev = t[end - 1];
  // Brace-init, aggregate returns, lambda intros: plainly not a scope head.
  if (prev.kind == TokKind::kPunct) {
    static const std::set<std::string> kValueContext = {"=", ",",  "(", "[",  "]",  "&&",
                                                        "||", "!", "?", ":",  "<<", ">>",
                                                        "+",  "-", "*", "/",  "%"};
    // ":" alone would also veto ctor-init-lists; those are re-admitted below
    // because their heads contain a parameter list before the colon.
    if (kValueContext.count(prev.text) > 0 && prev.text != ":") return info;
  }
  if (prev.kind == TokKind::kIdent && prev.text == "return") return info;

  bool has_namespace = false;
  std::size_t class_kw = SIZE_MAX;
  std::size_t first_paren = SIZE_MAX;
  bool has_lambda_intro = false;
  for (std::size_t i = begin; i < end; ++i) {
    if (t[i].kind == TokKind::kIdent && t[i].text == "namespace") has_namespace = true;
    if (t[i].kind == TokKind::kIdent && is_class_keyword(t[i].text) && class_kw == SIZE_MAX)
      class_kw = i;
    if (is_punct(t[i], "(") && first_paren == SIZE_MAX) first_paren = i;
    if (is_punct(t[i], "[")) has_lambda_intro = true;  // '[[' lexes as one token
  }

  if (has_namespace) {
    info.kind = Scope::Kind::kNamespace;
    for (std::size_t i = end; i > begin; --i)
      if (t[i - 1].kind == TokKind::kIdent && t[i - 1].text != "namespace" &&
          t[i - 1].text != "inline") {
        info.name = t[i - 1].text;
        break;
      }
    return info;
  }

  if (class_kw != SIZE_MAX && (first_paren == SIZE_MAX || class_kw < first_paren)) {
    info.kind = Scope::Kind::kClass;
    // Name: first plain identifier after the keyword chain, skipping
    // annotation macros (and their argument groups) and attributes.
    std::size_t i = class_kw + 1;
    while (i < end) {
      if (t[i].kind == TokKind::kIdent &&
          (t[i].text == "class" || is_annotation_ident(t[i].text) ||
           t[i].text == "alignas")) {
        ++i;
        if (i < end && is_punct(t[i], "(")) i = skip_group(t, i, "(", ")");
        continue;
      }
      if (is_punct(t[i], "[[")) {
        while (i < end && !is_punct(t[i], "]]")) ++i;
        ++i;
        continue;
      }
      if (t[i].kind == TokKind::kIdent) {
        info.name = t[i].text;
        return info;
      }
      break;
    }
    return info;
  }

  if (first_paren == SIZE_MAX || has_lambda_intro) return info;  // block

  // Function candidate: first `ident (` with both angle and paren depth 0.
  // Annotation macros are stepped over with their argument groups, so a
  // leading `RBS_RT_ESCAPE(reason) int f(...)` still names f, not the macro.
  int angle = 0, paren = 0;
  std::size_t name_at = SIZE_MAX;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (t[i].kind == TokKind::kIdent && is_annotation_ident(t[i].text)) {
      if (is_punct(t[i + 1], "(")) i = skip_group(t, i + 1, "(", ")") - 1;
      continue;
    }
    if (is_punct(t[i], "<")) ++angle;
    else if (is_punct(t[i], ">")) angle = std::max(0, angle - 1);
    else if (is_punct(t[i], "(")) ++paren;
    else if (is_punct(t[i], ")")) paren = std::max(0, paren - 1);
    if (t[i].kind == TokKind::kIdent && !is_kw(t[i].text) && angle == 0 && paren == 0 &&
        is_punct(t[i + 1], "(")) {
      name_at = i;
      break;
    }
  }
  if (name_at == SIZE_MAX) return info;

  // The tokens after the parameter list must look like a declarator tail:
  // cv/ref/noexcept/override, annotation macros, attributes, a trailing
  // return type, or a constructor init list (which we accept wholesale).
  std::size_t i = skip_group(t, name_at + 1, "(", ")");
  bool tail_ok = true;
  while (i < end && tail_ok) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kIdent &&
        (tok.text == "const" || tok.text == "noexcept" || tok.text == "override" ||
         tok.text == "final" || tok.text == "mutable" || tok.text == "try" ||
         tok.text == "volatile" || is_annotation_ident(tok.text))) {
      ++i;
      if (i < end && is_punct(t[i], "(")) i = skip_group(t, i, "(", ")");
      continue;
    }
    if (is_punct(tok, "[[")) {
      while (i < end && !is_punct(t[i], "]]")) ++i;
      ++i;
      continue;
    }
    if (is_punct(tok, "&") || is_punct(tok, "&&")) {
      ++i;
      continue;
    }
    if (is_punct(tok, "->") || is_punct(tok, ":")) {
      i = end;  // trailing return type / ctor init list: accept the rest
      continue;
    }
    tail_ok = false;
  }
  if (!tail_ok) return info;

  info.kind = Scope::Kind::kFunction;
  info.name = t[name_at].text;
  std::size_t qual_at = name_at;  // step over '~' so Foo::~Foo() attributes to Foo
  if (qual_at > begin && is_punct(t[qual_at - 1], "~")) --qual_at;
  if (qual_at >= begin + 2 && is_punct(t[qual_at - 1], "::") &&
      t[qual_at - 2].kind == TokKind::kIdent)
    info.qualifier = t[qual_at - 2].text;
  for (std::size_t k = begin; k + 1 < end; ++k) {
    if (t[k].kind != TokKind::kIdent) continue;
    if (t[k].text == "RBS_NO_THREAD_SAFETY_ANALYSIS") info.no_analysis = true;
    if (t[k].text == "RBS_REQUIRES" || t[k].text == "RBS_ACQUIRE" ||
        t[k].text == "RBS_RELEASE") {
      for (std::string& arg : annotation_arguments(t, k + 1))
        info.held_mutexes.push_back(std::move(arg));
    }
  }
  // Rt/det flags may sit last in the head (nothing follows before the '{' /
  // ';'), so this scan covers the full range, unlike the k + 1 loop above.
  for (std::size_t k = begin; k < end; ++k) {
    if (t[k].kind != TokKind::kIdent) continue;
    for (const FamilyMacros& family : kFamilyMacros) {
      Discipline& marks = info.*family.marks;
      if (t[k].text == family.root) marks.root = true;
      if (t[k].text == family.safe) marks.safe = true;
      if (t[k].text == family.escape) {
        marks.escape = true;
        marks.escape_has_reason = !annotation_arguments(t, k + 1).empty();
      }
    }
  }
  return info;
}

bool has_rt_annotation(const std::vector<Token>& t, std::size_t begin, std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    if (t[k].kind != TokKind::kIdent) continue;
    for (const FamilyMacros& family : kFamilyMacros)
      if (t[k].text == family.root || t[k].text == family.safe || t[k].text == family.escape)
        return true;
  }
  return false;
}

}  // namespace

const GuardedMember* FileIndex::find_guarded(const std::string& member) const {
  for (const GuardedMember& g : guarded)
    if (g.name == member) return &g;
  return nullptr;
}

std::string guard_argument(const std::vector<Token>& tokens, std::size_t open_paren) {
  const std::vector<std::string> args = annotation_arguments(tokens, open_paren);
  return args.empty() ? std::string() : args.front();
}

FileIndex build_index(const std::vector<Token>& tokens) {
  FileIndex index;
  std::vector<Scope> stack;
  std::size_t head_start = 0;

  const auto enclosing_class = [&stack]() -> std::string {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      if (it->kind == Scope::Kind::kClass) return it->name;
    return {};
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind == TokKind::kInclude || tok.kind == TokKind::kPragma) {
      head_start = i + 1;
      continue;
    }
    if (is_punct(tok, "{")) {
      HeadInfo head = classify_head(tokens, head_start, i);
      Scope scope;
      scope.kind = head.kind;
      scope.name = head.name;
      if (head.kind == Scope::Kind::kFunction) {
        FunctionInfo fn;
        fn.name = head.name;
        fn.class_name = !head.qualifier.empty() ? head.qualifier : enclosing_class();
        fn.header_begin = head_start;
        fn.body_begin = i;
        fn.line = tok.line;
        fn.held_mutexes = std::move(head.held_mutexes);
        fn.no_analysis = head.no_analysis;
        for (const Scope& s : stack)
          if (s.kind == Scope::Kind::kNamespace && s.name.empty()) fn.internal_linkage = true;
        for (std::size_t k = head_start; k < i && fn.class_name.empty(); ++k)
          if (tokens[k].kind == TokKind::kIdent && tokens[k].text == "static")
            fn.internal_linkage = true;
        fn.rt = head.rt;
        fn.det = head.det;
        scope.function = index.functions.size();
        index.functions.push_back(std::move(fn));
      }
      stack.push_back(std::move(scope));
      head_start = i + 1;
      continue;
    }
    if (is_punct(tok, "}")) {
      if (!stack.empty()) {
        if (stack.back().function != SIZE_MAX)
          index.functions[stack.back().function].body_end = i;
        stack.pop_back();
      }
      head_start = i + 1;
      continue;
    }
    if (is_punct(tok, ";")) {
      // Harvest rt-annotated function *declarations* (`void step() RBS_HOT_PATH;`
      // in a class body or header). Heads without an rt annotation are never
      // classified here, so ordinary call statements cannot misfire.
      if (has_rt_annotation(tokens, head_start, i)) {
        HeadInfo head = classify_head(tokens, head_start, i);
        if (head.kind == Scope::Kind::kFunction && (head.rt.marked() || head.det.marked())) {
          RtDecl decl;
          decl.class_name = !head.qualifier.empty() ? head.qualifier : enclosing_class();
          decl.name = head.name;
          decl.rt = head.rt;
          decl.det = head.det;
          decl.line = tok.line;
          index.rt_decls.push_back(std::move(decl));
        }
      }
      head_start = i + 1;
      continue;
    }
    // Guarded-member declarations live directly in class scope.
    if (tok.kind == TokKind::kIdent &&
        (tok.text == "RBS_GUARDED_BY" || tok.text == "RBS_PT_GUARDED_BY") &&
        i + 1 < tokens.size() && is_punct(tokens[i + 1], "(") && i > 0 &&
        tokens[i - 1].kind == TokKind::kIdent && !stack.empty() &&
        stack.back().kind == Scope::Kind::kClass) {
      GuardedMember member;
      member.class_name = stack.back().name;
      member.name = tokens[i - 1].text;
      member.mutex = guard_argument(tokens, i + 1);
      member.line = tok.line;
      if (!member.mutex.empty()) index.guarded.push_back(std::move(member));
    }
  }
  // Unterminated bodies (truncated input): close them at the last token.
  for (FunctionInfo& fn : index.functions)
    if (fn.body_end == 0) fn.body_end = tokens.empty() ? 0 : tokens.size() - 1;
  return index;
}

bool is_raii_guard_type(const std::string& ident) {
  return ident == "lock_guard" || ident == "unique_lock" || ident == "scoped_lock" ||
         ident == "shared_lock" || ident == "LockGuard" || ident == "UniqueLock";
}

void GuardTracker::observe(const std::vector<Token>& tokens, std::size_t i, int depth) {
  const Token& tok = tokens[i];
  if (tok.kind != TokKind::kIdent) return;

  // Guard declaration: GuardType [<...>] var ( mutex-expr [, mutex-expr]* )
  if (is_raii_guard_type(tok.text)) {
    std::size_t j = i + 1;
    if (j < tokens.size() && is_punct(tokens[j], "<")) j = skip_group(tokens, j, "<", ">");
    if (j + 1 < tokens.size() && tokens[j].kind == TokKind::kIdent &&
        is_punct(tokens[j + 1], "(")) {
      const std::string var = tokens[j].text;
      for (const std::string& mutex : annotation_arguments(tokens, j + 1))
        guards_.push_back({var, mutex, depth, true});
    }
    return;
  }

  // Mid-scope toggles on a tracked guard: var.unlock() / var.lock().
  if (is_guard_var(tok.text) && i + 3 < tokens.size() && is_punct(tokens[i + 1], ".") &&
      tokens[i + 2].kind == TokKind::kIdent && is_punct(tokens[i + 3], "(")) {
    const std::string& member = tokens[i + 2].text;
    if (member == "lock" || member == "unlock") {
      const bool active = member == "lock";
      for (Guard& g : guards_)
        if (g.var == tok.text) g.active = active;
    }
  }
}

void GuardTracker::close_scope(int depth) {
  guards_.erase(std::remove_if(guards_.begin(), guards_.end(),
                               [depth](const Guard& g) { return g.depth > depth; }),
                guards_.end());
}

bool GuardTracker::holds(const std::string& mutex) const {
  for (const Guard& g : guards_)
    if (g.active && g.mutex == mutex) return true;
  return false;
}

bool GuardTracker::is_guard_var(const std::string& name) const {
  for (const Guard& g : guards_)
    if (g.var == name) return true;
  return false;
}

}  // namespace rbs::lint
