#include "rbs_lint/token.hpp"

#include <algorithm>
#include <cctype>

namespace rbs::lint {

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Lexed run() {
    bool line_has_token = false;  // only a '#' first on its line starts a directive
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        line_has_token = false;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (c == '#' && !line_has_token) {
        directive();
        line_has_token = true;
        continue;
      }
      line_has_token = true;
      if (c == '"') {
        string_literal();
        continue;
      }
      if (c == '\'') {
        char_literal();
        continue;
      }
      if (digit(c) || (c == '.' && digit(peek(1)))) {
        number();
        continue;
      }
      if (ident_start(c)) {
        identifier();
        continue;
      }
      punct();
    }
    return std::move(out_);
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  void add(TokKind kind, std::string text, int line) {
    out_.tokens.push_back({kind, std::move(text), line});
  }

  void line_comment() {
    const int start = line_;
    std::size_t end = text_.find('\n', pos_);
    if (end == std::string::npos) end = text_.size();
    out_.comments[start] += text_.substr(pos_, end - pos_);
    pos_ = end;
  }

  void block_comment() {
    const int start = line_;
    pos_ += 2;
    std::string body;
    while (pos_ < text_.size() && !(text_[pos_] == '*' && peek(1) == '/')) {
      if (text_[pos_] == '\n') ++line_;
      body += text_[pos_++];
    }
    pos_ = std::min(pos_ + 2, text_.size());
    out_.comments[start] += body;
  }

  void skip_to_eol_with_continuations() {
    while (pos_ < text_.size()) {
      if (text_[pos_] == '\\' && peek(1) == '\n') {
        ++line_;
        pos_ += 2;
        continue;
      }
      if (text_[pos_] == '\n') return;  // newline handled by the main loop
      if (text_[pos_] == '/' && peek(1) == '/') {
        line_comment();
        return;
      }
      ++pos_;
    }
  }

  void directive() {
    const int start = line_;
    ++pos_;  // '#'
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
    std::string name;
    while (pos_ < text_.size() && ident_char(text_[pos_])) name += text_[pos_++];
    if (name == "include") {
      while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
      const char open = pos_ < text_.size() ? text_[pos_] : '\0';
      const char close = open == '<' ? '>' : '"';
      if (open == '<' || open == '"') {
        std::string target(1, open);
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != close && text_[pos_] != '\n')
          target += text_[pos_++];
        if (pos_ < text_.size() && text_[pos_] == close) {
          target += close;
          ++pos_;
        }
        add(TokKind::kInclude, target, start);
      }
    } else if (name == "pragma") {
      while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
      std::string body;
      while (pos_ < text_.size() && text_[pos_] != '\n') body += text_[pos_++];
      while (!body.empty() && std::isspace(static_cast<unsigned char>(body.back())))
        body.pop_back();
      add(TokKind::kPragma, body, start);
    }
    // Macro bodies (#define and friends) are deliberately not tokenized.
    skip_to_eol_with_continuations();
  }

  void string_literal() {
    // Raw string? The prefix identifier (R, u8R, ...) was already emitted; it
    // is harmless. Detect rawness from that previous token.
    bool raw = false;
    if (!out_.tokens.empty() && out_.tokens.back().kind == TokKind::kIdent) {
      const std::string& prev = out_.tokens.back().text;
      if (!prev.empty() && prev.back() == 'R' &&
          (prev == "R" || prev == "u8R" || prev == "uR" || prev == "LR")) {
        raw = true;
        out_.tokens.pop_back();
      }
    }
    ++pos_;  // opening quote
    if (raw) {
      std::string delim;
      while (pos_ < text_.size() && text_[pos_] != '(') delim += text_[pos_++];
      const std::string terminator = ")" + delim + "\"";
      const std::size_t end = text_.find(terminator, pos_);
      const std::size_t stop = end == std::string::npos ? text_.size() : end + terminator.size();
      line_ += static_cast<int>(std::count(text_.begin() + static_cast<long>(pos_),
                                           text_.begin() + static_cast<long>(stop), '\n'));
      pos_ = stop;
      return;
    }
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
    if (pos_ < text_.size()) ++pos_;
  }

  void char_literal() {
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '\'') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      if (text_[pos_] == '\n') return;  // stray quote; bail at EOL
      ++pos_;
    }
    if (pos_ < text_.size()) ++pos_;
  }

  void number() {
    const int start = line_;
    std::string body;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (ident_char(c) || c == '.' || c == '\'') {
        body += c;
        ++pos_;
        continue;
      }
      if ((c == '+' || c == '-') && !body.empty() &&
          (body.back() == 'e' || body.back() == 'E' || body.back() == 'p' ||
           body.back() == 'P')) {
        body += c;
        ++pos_;
        continue;
      }
      break;
    }
    add(TokKind::kNumber, body, start);
  }

  void identifier() {
    const int start = line_;
    std::string body;
    while (pos_ < text_.size() && ident_char(text_[pos_])) body += text_[pos_++];
    add(TokKind::kIdent, body, start);
  }

  void punct() {
    static const char* kTwoChar[] = {"==", "!=", "<=", ">=", "::", "[[", "]]", "->"};
    for (const char* two : kTwoChar) {
      if (text_[pos_] == two[0] && peek(1) == two[1]) {
        add(TokKind::kPunct, two, line_);
        pos_ += 2;
        return;
      }
    }
    add(TokKind::kPunct, std::string(1, text_[pos_]), line_);
    ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Lexed out_;
};

}  // namespace

Lexed lex(const std::string& text) { return Lexer(text).run(); }

std::size_t skip_group(const std::vector<Token>& t, std::size_t i, const char* open,
                       const char* close) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (is_punct(t[i], open)) ++depth;
    else if (is_punct(t[i], close) && --depth == 0) return i + 1;
  }
  return t.size();
}

std::map<int, std::set<std::string>> allow_comments(const Lexed& lexed) {
  std::map<int, std::set<std::string>> allows;
  for (const auto& [line, text] : lexed.comments) {
    std::size_t at = text.find("rbs-lint:");
    if (at == std::string::npos) continue;
    at = text.find("allow(", at);
    if (at == std::string::npos) continue;
    const std::size_t close = text.find(')', at);
    if (close == std::string::npos) continue;
    std::size_t pos = at + 6;
    while (pos < close) {
      std::size_t comma = text.find(',', pos);
      if (comma == std::string::npos || comma > close) comma = close;
      const std::size_t b = text.find_first_not_of(" \t", pos);
      if (b != std::string::npos && b < comma) {
        std::size_t e = text.find_last_not_of(" \t", comma - 1);
        allows[line].insert(text.substr(b, e - b + 1));
      }
      pos = comma + 1;
    }
  }
  return allows;
}

bool allowed(const std::map<int, std::set<std::string>>& allows, const std::string& rule,
             int line) {
  for (const int probe : {line, line - 1}) {
    const auto it = allows.find(probe);
    if (it != allows.end() && it->second.count(rule) > 0) return true;
  }
  return false;
}

}  // namespace rbs::lint
