#include "rbs_lint/walk.hpp"

#include <algorithm>
#include <utility>

namespace rbs::lint {

CallSite call_site(const std::vector<Token>& t, std::size_t i) {
  CallSite site;
  site.member = i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
  if (!site.member && i >= 2 && is_punct(t[i - 1], "::") && t[i - 2].kind == TokKind::kIdent)
    site.qualifier = t[i - 2].text;
  return site;
}

bool is_call(const std::vector<Token>& t, std::size_t i) {
  static const std::set<std::string> kControl = {"if",       "while",    "for",    "switch",
                                                 "catch",    "sizeof",   "alignof", "return",
                                                 "decltype", "noexcept", "typeid"};
  return t[i].kind == TokKind::kIdent && i + 1 < t.size() && is_punct(t[i + 1], "(") &&
         kControl.count(t[i].text) == 0;
}

void sort_diagnostics(std::vector<Diagnostic>& diags) {
  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
}

// ---------------------------------------------------------------------------
// CallGraph
// ---------------------------------------------------------------------------

CallGraph::CallGraph(const std::vector<RtUnit>& units) : units_(units) {
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const std::vector<FunctionInfo>& functions = units_[u].index->functions;
    for (std::size_t f = 0; f < functions.size(); ++f) {
      by_name_[functions[f].name].push_back(ids_.size());
      ids_.push_back({u, f});
    }
  }
}

const FunctionInfo& CallGraph::fn(std::size_t g) const {
  return units_[ids_[g].unit].index->functions[ids_[g].index];
}

const std::vector<Token>& CallGraph::toks(std::size_t g) const {
  return units_[ids_[g].unit].lexed->tokens;
}

const std::vector<std::size_t>* CallGraph::named(const std::string& name) const {
  const auto hit = by_name_.find(name);
  return hit == by_name_.end() ? nullptr : &hit->second;
}

void CallGraph::resolve(const std::string& name, const CallSite& site,
                        const std::string& caller_class, std::vector<std::size_t>* out) const {
  out->clear();
  const std::vector<std::size_t>* all = named(name);
  if (all == nullptr) return;
  if (!site.qualifier.empty()) {
    for (std::size_t g : *all)
      if (fn(g).class_name == site.qualifier) out->push_back(g);
    return;
  }
  if (site.member) {
    for (std::size_t g : *all)
      if (!fn(g).class_name.empty()) out->push_back(g);
    return;
  }
  if (!caller_class.empty()) {
    for (std::size_t g : *all)
      if (fn(g).class_name == caller_class) out->push_back(g);
    if (!out->empty()) return;
  }
  for (std::size_t g : *all)
    if (fn(g).class_name.empty()) out->push_back(g);
}

// ---------------------------------------------------------------------------
// DisciplinePass
// ---------------------------------------------------------------------------

DisciplinePass::DisciplinePass(const std::vector<RtUnit>& units, const DisciplineFamily& family)
    : graph_(units), family_(family) {
  for (std::size_t g = 0; g < graph_.size(); ++g)
    marks_.push_back(graph_.fn(g).*family_.definition);
  for (const RtUnit& unit : units) allows_.push_back(allow_comments(*unit.lexed));
}

std::vector<Diagnostic> DisciplinePass::run() {
  merge_declarations();
  check_escape_reasons();
  mark_roots();
  walk();
  finish();
  sort_diagnostics(diags_);
  return std::move(diags_);
}

void DisciplinePass::report(std::size_t unit, const std::string& rule, int line,
                            std::string message) {
  if (allowed(allows_[unit], rule, line)) return;
  diags_.push_back({graph_.units()[unit].path, line, rule, std::move(message)});
}

void DisciplinePass::merge_declarations() {
  for (const RtUnit& unit : graph_.units()) {
    for (const RtDecl& decl : unit.index->rt_decls) {
      const Discipline& declared = decl.*family_.declaration;
      const std::vector<std::size_t>* same_name = graph_.named(decl.name);
      if (!declared.marked() || same_name == nullptr) continue;
      for (std::size_t g : *same_name) {
        if (graph_.fn(g).class_name != decl.class_name) continue;
        Discipline& merged = marks_[g];
        merged.root = merged.root || declared.root;
        merged.safe = merged.safe || declared.safe;
        if (declared.escape) {
          merged.escape = true;
          merged.escape_has_reason = merged.escape_has_reason || declared.escape_has_reason;
        }
      }
    }
  }
}

void DisciplinePass::check_escape_reasons() {
  const auto reasonless = [this](const std::string& name) {
    const std::string macro = family_.escape_macro;
    return macro + " on `" + name + "` has no reason; justify it like " + macro + "(" +
           family_.example_reason + ") -- annotation ignored";
  };
  for (std::size_t g = 0; g < graph_.size(); ++g) {
    if (!marks_[g].escape || marks_[g].escape_has_reason) continue;
    report(graph_.unit_of(g), family_.reason_rule, graph_.fn(g).line,
           reasonless(graph_.fn(g).name));
    marks_[g].escape = false;
  }
  // A declaration no definition matches by name is reported at its own line.
  const std::vector<RtUnit>& units = graph_.units();
  for (std::size_t u = 0; u < units.size(); ++u)
    for (const RtDecl& decl : units[u].index->rt_decls) {
      const Discipline& declared = decl.*family_.declaration;
      if (declared.escape && !declared.escape_has_reason && graph_.named(decl.name) == nullptr)
        report(u, family_.reason_rule, decl.line, reasonless(decl.name));
    }
}

void DisciplinePass::mark_roots() {
  root_of_.assign(graph_.size(), kUnreached);
  for (std::size_t g = 0; g < graph_.size(); ++g)
    if (marks_[g].root) {
      root_of_[g] = g;
      queue_.push_back(g);
    }
}

void DisciplinePass::walk() {
  while (!queue_.empty()) {
    const std::size_t g = queue_.back();
    queue_.pop_back();
    if (shielded(g)) continue;  // audited leaf / justified escape
    scan_body(g, "`" + graph_.fn(g).name + "`, reachable from " + family_.root_label + " `" +
                     graph_.fn(root_of_[g]).name + "`");
  }
}

const std::vector<std::size_t>& DisciplinePass::follow(std::size_t g, const std::string& name,
                                                       const CallSite& site) {
  graph_.resolve(name, site, graph_.fn(g).class_name, &resolved_);
  callees_.clear();
  for (std::size_t callee : resolved_) {
    if (shielded(callee)) continue;
    callees_.push_back(callee);
    if (root_of_[callee] == kUnreached) {
      root_of_[callee] = root_of_[g];
      queue_.push_back(callee);
    }
  }
  return callees_;
}

}  // namespace rbs::lint
