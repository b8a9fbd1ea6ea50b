#include "rbs_lint/api.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace rbs::lint {

namespace {

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

bool under_src(const std::string& path) {
  for (const auto& part : std::filesystem::path(path))
    if (part == "src") return true;
  return false;
}

/// The reason an `allow(...)` comment gives after its rule list, trimmed of
/// blanks and the dashes or colon that introduce it; empty when it gives none.
std::string allow_reason(const std::string& comment) {
  const std::size_t at = comment.find("allow(");
  const std::size_t close = at == std::string::npos ? at : comment.find(')', at);
  if (close == std::string::npos) return {};
  const std::size_t begin = comment.find_first_not_of(" \t-:", close + 1);
  if (begin == std::string::npos) return {};
  return comment.substr(begin, comment.find_last_not_of(" \t") - begin + 1);
}

class ApiPass {
 public:
  explicit ApiPass(const std::vector<RtUnit>& units) : units_(units) { build_tables(); }

  std::vector<Diagnostic> run() {
    if (queue_.empty()) return {};  // no main: nothing is a program here
    for (std::size_t u = 0; u < units_.size(); ++u) scan_initializers(u);
    while (!queue_.empty()) {
      const std::size_t g = queue_.back();
      queue_.pop_back();
      scan(g);
    }
    report_unreached();
    std::sort(diags_.begin(), diags_.end(), [](const Diagnostic& a, const Diagnostic& b) {
      if (a.file != b.file) return a.file < b.file;
      if (a.line != b.line) return a.line < b.line;
      if (a.rule != b.rule) return a.rule < b.rule;
      return a.message < b.message;
    });
    return std::move(diags_);
  }

 private:
  struct FnId {
    std::size_t unit = 0;
    std::size_t index = 0;  ///< into units[unit].index->functions
  };

  const FunctionInfo& fn(std::size_t g) const {
    return units_[ids_[g].unit].index->functions[ids_[g].index];
  }
  const std::vector<Token>& toks(std::size_t g) const {
    return units_[ids_[g].unit].lexed->tokens;
  }

  void build_tables() {
    for (std::size_t u = 0; u < units_.size(); ++u) {
      const FileIndex& index = *units_[u].index;
      for (std::size_t f = 0; f < index.functions.size(); ++f) {
        ids_.push_back({u, f});
        const FunctionInfo& info = index.functions[f];
        by_name_[info.name].push_back(ids_.size() - 1);
        if (!info.class_name.empty()) classes_.insert(info.class_name);
      }
    }
    reached_.assign(ids_.size(), 0);
    for (std::size_t g = 0; g < ids_.size(); ++g)
      if (fn(g).name == "main" && fn(g).class_name.empty() && !fn(g).internal_linkage) mark(g);
  }

  void mark(std::size_t g) {
    if (reached_[g]) return;
    reached_[g] = 1;
    queue_.push_back(g);
  }

  /// Marks every function the identifier at t[i] may name.
  void mention(const std::vector<Token>& t, std::size_t i) {
    const auto hit = by_name_.find(t[i].text);
    if (hit == by_name_.end()) return;
    const bool member = i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
    std::string qualifier;
    if (!member && i >= 2 && is_punct(t[i - 1], "::") && t[i - 2].kind == TokKind::kIdent)
      qualifier = t[i - 2].text;
    const bool class_qualified = classes_.count(qualifier) > 0;
    for (const std::size_t g : hit->second) {
      const std::string& owner = fn(g).class_name;
      if (member ? owner.empty() : class_qualified && owner != qualifier) continue;
      mark(g);
    }
  }

  /// A reached function's declaration head -- return and parameter types,
  /// default arguments, constructor initializers -- and its body.
  void scan(std::size_t g) {
    const FunctionInfo& info = fn(g);
    const std::vector<Token>& t = toks(g);
    for (std::size_t i = info.header_begin; i < info.body_end && i < t.size(); ++i)
      if (t[i].kind == TokKind::kIdent) mention(t, i);
  }

  /// Identifiers in initializers outside every function body: from an `=`
  /// to the `;` that ends the declaration at the same brace depth. A
  /// function body ends the initializer, which was then a default argument.
  void scan_initializers(std::size_t u) {
    const std::vector<Token>& t = units_[u].lexed->tokens;
    std::vector<std::uint8_t> in_body(t.size(), 0);
    for (const FunctionInfo& info : units_[u].index->functions)
      for (std::size_t i = info.body_begin; i <= info.body_end && i < t.size(); ++i)
        in_body[i] = 1;
    int depth = 0;
    int init_depth = -1;  ///< brace depth of the open initializer's `=`; -1 for none
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (in_body[i]) {
        init_depth = -1;
      } else if (is_punct(t[i], "{")) {
        ++depth;
      } else if (is_punct(t[i], "}")) {
        if (--depth < init_depth) init_depth = -1;
      } else if (is_punct(t[i], "=")) {
        if (init_depth < 0) init_depth = depth;
      } else if (is_punct(t[i], ";")) {
        if (depth == init_depth) init_depth = -1;
      } else if (init_depth >= 0 && t[i].kind == TokKind::kIdent) {
        mention(t, i);
      }
    }
  }

  /// Line of the definition's name (its head may span lines).
  int name_line(std::size_t g) const {
    const FunctionInfo& info = fn(g);
    const std::vector<Token>& t = toks(g);
    for (std::size_t i = info.header_begin; i + 1 < info.body_begin && i + 1 < t.size(); ++i)
      if (t[i].kind == TokKind::kIdent && t[i].text == info.name && is_punct(t[i + 1], "("))
        return t[i].line;
    return info.line;
  }

  void report_unreached() {
    std::vector<std::map<int, std::set<std::string>>> allows;
    for (const RtUnit& unit : units_) allows.push_back(allow_comments(*unit.lexed));
    for (std::size_t g = 0; g < ids_.size(); ++g) {
      const FunctionInfo& info = fn(g);
      const std::size_t u = ids_[g].unit;
      if (reached_[g] || !info.class_name.empty() || info.internal_linkage ||
          !under_src(units_[u].path))
        continue;
      const int line = name_line(g);
      bool allowed = false;
      for (const int probe : {line, line - 1}) {
        const auto rules = allows[u].find(probe);
        if (rules == allows[u].end() || rules->second.count(kRuleApiUnreached) == 0) continue;
        if (!allow_reason(units_[u].lexed->comments.at(probe)).empty()) {
          allowed = true;
        } else {
          diags_.push_back({units_[u].path, probe, kRuleApiUnreached,
                            "allow(api-unreached) on `" + info.name +
                                "` gives no reason; say why it stays -- allow ignored"});
        }
      }
      if (!allowed)
        diags_.push_back({units_[u].path, line, kRuleApiUnreached,
                          "`" + info.name +
                              "` has external linkage under src/, but no main in the scan "
                              "reaches it; delete it, give it a caller, or allow it with "
                              "a reason"});
    }
  }

  const std::vector<RtUnit>& units_;
  std::vector<FnId> ids_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
  std::set<std::string> classes_;  ///< every class that owns an indexed member
  std::vector<std::uint8_t> reached_;
  std::vector<std::size_t> queue_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> api_check(const std::vector<RtUnit>& units) {
  return ApiPass(units).run();
}

}  // namespace rbs::lint
