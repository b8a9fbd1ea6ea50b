// Tokenizer for rbs_lint: a C++-shaped lexer, just faithful enough for the
// rules. Strings, character literals and comments never leak tokens;
// preprocessor directives surface as structured Include/Pragma tokens;
// pp-numbers follow the standard grammar (digit separators, exponents with
// signs, hex floats).
//
// Split out of lint.cpp so the semantic layer (semantic.hpp: scope tracking,
// declaration indexing, per-function dataflow) and the rule engine share one
// token stream definition.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rbs::lint {

enum class TokKind { kIdent, kNumber, kPunct, kInclude, kPragma };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct Lexed {
  std::vector<Token> tokens;
  /// Comment text by starting line, for suppression scanning.
  std::map<int, std::string> comments;
};

/// Lexes one translation unit's text.
Lexed lex(const std::string& text);

/// True when `t` is the punctuator `s`.
inline bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

/// Index one past the matching closer for the opener at `i` ('(' / '<' /
/// '['); tokens.size() when unbalanced.
std::size_t skip_group(const std::vector<Token>& t, std::size_t i, const char* open,
                       const char* close);

/// Parsed `// rbs-lint: allow(rule, ...)` comments: line -> suppressed rule
/// names. Shared by the per-file rule engine (lint.cpp) and the whole-program
/// passes (walk.hpp), which must honor the same suppression syntax.
std::map<int, std::set<std::string>> allow_comments(const Lexed& lexed);

/// True when `allows` (from allow_comments) suppresses `rule` at `line`: an
/// allow comment silences its own line and the next one.
bool allowed(const std::map<int, std::set<std::string>>& allows, const std::string& rule,
             int line);

}  // namespace rbs::lint
