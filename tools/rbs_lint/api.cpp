#include "rbs_lint/api.hpp"

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace rbs::lint {

namespace {

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
  explicit ApiPass(const std::vector<RtUnit>& units) : graph_(units) {
    reached_.assign(graph_.size(), 0);
    for (std::size_t g = 0; g < graph_.size(); ++g) {
      const FunctionInfo& info = graph_.fn(g);
      if (!info.class_name.empty()) classes_.insert(info.class_name);
      else if (info.name == "main" && !info.internal_linkage) mark(g);
    }
  }

  std::vector<Diagnostic> run() {
    if (queue_.empty()) return {};  // no main: nothing is a program here
    for (std::size_t u = 0; u < graph_.units().size(); ++u) scan_initializers(u);
    while (!queue_.empty()) {
      const std::size_t g = queue_.back();
      queue_.pop_back();
      scan(g);
    }
    report_unreached();
    sort_diagnostics(diags_);
    return std::move(diags_);
  }

 private:
  void mark(std::size_t g) {
    if (reached_[g]) return;
    reached_[g] = 1;
    queue_.push_back(g);
  }

  /// Marks every function the identifier at t[i] may name.
  void mention(const std::vector<Token>& t, std::size_t i) {
    const std::vector<std::size_t>* same_name = graph_.named(t[i].text);
    if (same_name == nullptr) return;
    const CallSite site = call_site(t, i);
    const bool class_qualified = classes_.count(site.qualifier) > 0;
    for (const std::size_t g : *same_name) {
      const std::string& owner = graph_.fn(g).class_name;
      if (site.member ? owner.empty() : class_qualified && owner != site.qualifier) continue;
      mark(g);
    }
  }

  /// A reached function's declaration head -- return and parameter types,
  /// default arguments, constructor initializers -- and its body.
  void scan(std::size_t g) {
    const FunctionInfo& info = graph_.fn(g);
    const std::vector<Token>& t = graph_.toks(g);
    for (std::size_t i = info.header_begin; i < info.body_end && i < t.size(); ++i)
      if (t[i].kind == TokKind::kIdent) mention(t, i);
  }

  /// Identifiers in initializers outside every function body: from an `=`
  /// to the `;` that ends the declaration at the same brace depth. A
  /// function body ends the initializer, which was then a default argument.
  void scan_initializers(std::size_t u) {
    const RtUnit& unit = graph_.units()[u];
    const std::vector<Token>& t = unit.lexed->tokens;
    std::vector<std::uint8_t> in_body(t.size(), 0);
    for (const FunctionInfo& info : unit.index->functions)
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
    const FunctionInfo& info = graph_.fn(g);
    const std::vector<Token>& t = graph_.toks(g);
    for (std::size_t i = info.header_begin; i + 1 < info.body_begin && i + 1 < t.size(); ++i)
      if (t[i].kind == TokKind::kIdent && t[i].text == info.name && is_punct(t[i + 1], "("))
        return t[i].line;
    return info.line;
  }

  void report_unreached() {
    const std::vector<RtUnit>& units = graph_.units();
    std::vector<std::map<int, std::set<std::string>>> allows;
    for (const RtUnit& unit : units) allows.push_back(allow_comments(*unit.lexed));
    for (std::size_t g = 0; g < graph_.size(); ++g) {
      const FunctionInfo& info = graph_.fn(g);
      const std::size_t u = graph_.unit_of(g);
      if (reached_[g] || !info.class_name.empty() || info.internal_linkage ||
          !under_src(units[u].path))
        continue;
      const int line = name_line(g);
      bool excused = false;
      for (const int probe : {line, line - 1}) {
        const auto rules = allows[u].find(probe);
        if (rules == allows[u].end() || rules->second.count(kRuleApiUnreached) == 0) continue;
        if (!allow_reason(units[u].lexed->comments.at(probe)).empty()) {
          excused = true;
        } else {
          diags_.push_back({units[u].path, probe, kRuleApiUnreached,
                            "allow(api-unreached) on `" + info.name +
                                "` gives no reason; say why it stays -- allow ignored"});
        }
      }
      if (!excused)
        diags_.push_back({units[u].path, line, kRuleApiUnreached,
                          "`" + info.name +
                              "` has external linkage under src/, but no main in the scan "
                              "reaches it; delete it, give it a caller, or allow it with "
                              "a reason"});
    }
  }

  const CallGraph graph_;
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
