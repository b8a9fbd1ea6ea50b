// rbs_walk: the machinery rbs_lint's whole-program passes share. A
// whole-program pass sees every file of a scan at once, because the roots it
// walks from and the functions they reach may sit in different files:
//
//   rt   (rt.hpp)   rt-* rules, rooted at RBS_HOT_PATH
//   det  (det.hpp)  det-* rules, rooted at RBS_DET_PATH
//   api  (api.hpp)  api-unreached, rooted at every `main`
//
// All three read one function table (CallGraph) over the same lexed and
// indexed units. The rt and det passes are one walk (DisciplinePass),
// parameterised by the annotation family it reads; each adds only its body
// scanner, and the rt pass its recursion check.
//
// Call resolution (CallGraph::resolve) is name-based and conservative,
// sharing the signal-safety rule's philosophy:
//
//   X::f()    resolves to class X's members named f;
//   x.f()     (or x->f()) resolves to every indexed member named f, since
//             the receiver's type is unknown (free functions cannot be the
//             target of a member call);
//   f()       resolves to the caller's own class's members named f, which
//             shadow free functions, else to every free function named f.
//
// Unresolved callees (std internals, function pointers, std::function
// targets) are skipped: the documented fallback, see docs/static-analysis.md
// "Call resolution and its documented limits".
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rbs_lint/lint.hpp"
#include "rbs_lint/semantic.hpp"
#include "rbs_lint/token.hpp"

namespace rbs::lint {

/// One lexed + indexed translation unit handed to a whole-program pass.
/// The pointees must outlive the pass.
struct RtUnit {
  std::string path;
  const Lexed* lexed = nullptr;
  const FileIndex* index = nullptr;
};

/// The shape of the call (or mention) whose name is t[i].
struct CallSite {
  bool member = false;    ///< `x.f` / `x->f`: through a receiver
  std::string qualifier;  ///< X in `X::f`; empty otherwise
};

/// The member or qualifier shape of the name at t[i].
CallSite call_site(const std::vector<Token>& t, std::size_t i);

/// True when t[i] is an identifier called there: followed by '(' and no
/// control keyword (`if`, `sizeof`, `return`, ...).
bool is_call(const std::vector<Token>& t, std::size_t i);

/// Sorts by (file, line, rule, message): every whole-program pass's order.
void sort_diagnostics(std::vector<Diagnostic>& diags);

/// The function table of a scan: every indexed definition of every unit,
/// numbered in unit order then definition order, with lookup by name.
class CallGraph {
 public:
  explicit CallGraph(const std::vector<RtUnit>& units);

  std::size_t size() const { return ids_.size(); }
  const std::vector<RtUnit>& units() const { return units_; }
  std::size_t unit_of(std::size_t g) const { return ids_[g].unit; }
  const FunctionInfo& fn(std::size_t g) const;
  /// The tokens of the unit that defines function g.
  const std::vector<Token>& toks(std::size_t g) const;

  /// Every function defined as `name`, in table order; nullptr for none.
  const std::vector<std::size_t>* named(const std::string& name) const;

  /// Callee candidates of a call to `name` shaped `site`, made from a
  /// function of class `caller_class` ("" for a free function), into `out`.
  void resolve(const std::string& name, const CallSite& site,
               const std::string& caller_class, std::vector<std::size_t>* out) const;

 private:
  struct FnId {
    std::size_t unit = 0;
    std::size_t index = 0;  ///< into units[unit].index->functions
  };

  const std::vector<RtUnit>& units_;
  std::vector<FnId> ids_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
};

/// What tells one annotation family's walk from another's.
struct DisciplineFamily {
  Discipline FunctionInfo::*definition;  ///< the family's marks on a definition
  Discipline RtDecl::*declaration;       ///< ... and on a declaration
  const char* escape_macro;              ///< "RBS_RT_ESCAPE"
  const char* example_reason;            ///< suggested in the reason-less escape report
  const char* reason_rule;               ///< the rule a reason-less escape is reported under
  const char* root_label;                ///< "hot path": names the root in findings
};

/// A reachability walk over the whole-program call graph, rooted at one
/// annotation family's RBS_*_PATH functions. run() merges declaration-site
/// marks onto the definitions they match by (class, name), reports every
/// escape without a reason (and ignores it, so a missing reason can never
/// widen the audited surface), marks the roots, and walks: each reached
/// function not marked safe or escaped is handed to scan_body, which reports
/// its findings and follows its calls. Findings honor `// rbs-lint:
/// allow(...)` comments; the caller applies rule enabling and baselines.
class DisciplinePass {
 public:
  DisciplinePass(const std::vector<RtUnit>& units, const DisciplineFamily& family);

  /// The pass's findings, sorted by sort_diagnostics.
  std::vector<Diagnostic> run();

 protected:
  /// Scans the body of function g, reached from a root. `where` names both
  /// for findings: "`f`, reachable from hot path `root`".
  virtual void scan_body(std::size_t g, const std::string& where) = 0;

  /// Runs once after the walk (the rt pass's recursion check).
  virtual void finish() {}

  const CallGraph& graph() const { return graph_; }
  /// The root g was first reached from; kUnreached when no root reaches it.
  std::size_t root_of(std::size_t g) const { return root_of_[g]; }
  static constexpr std::size_t kUnreached = SIZE_MAX;

  void report(std::size_t unit, const std::string& rule, int line, std::string message);

  /// Follows the call to `name` shaped `site` in g's body: queues every
  /// callee not reached yet, and returns the callees the walk descends into
  /// (safe and escaped ones are leaves).
  const std::vector<std::size_t>& follow(std::size_t g, const std::string& name,
                                         const CallSite& site);

 private:
  void merge_declarations();
  void check_escape_reasons();
  void mark_roots();
  void walk();
  /// True when the walk must stop at g without scanning its body.
  bool shielded(std::size_t g) const { return marks_[g].safe || marks_[g].escape; }

  const CallGraph graph_;
  const DisciplineFamily family_;
  std::vector<Discipline> marks_;  ///< merged definition and declaration marks
  std::vector<std::map<int, std::set<std::string>>> allows_;  ///< per unit
  std::vector<std::size_t> root_of_;
  std::vector<std::size_t> queue_;
  std::vector<std::size_t> resolved_, callees_;  ///< follow()'s scratch
  std::vector<Diagnostic> diags_;
};

}  // namespace rbs::lint
