// Lightweight semantic model for rbs_lint: scopes, declarations, and
// per-function lock dataflow over the raw token stream.
//
// This is deliberately not a C++ front end. It is a brace/scope tracker plus
// pattern recognizers tuned to the project's idioms, honest about its
// approximations (documented in docs/static-analysis.md):
//
//   * classes/structs (including local structs) are indexed with their
//     RBS_GUARDED_BY members;
//   * function definitions (free, inline member, out-of-line member) are
//     indexed with their body token ranges and RBS_REQUIRES /
//     RBS_ACQUIRE / RBS_RELEASE / RBS_NO_THREAD_SAFETY_ANALYSIS
//     annotations read from the definition site;
//   * mutex expressions are identified by their final path component
//     (`state.mutex` and `mutex` refer to the same capability), which is
//     unambiguous as long as one scope never juggles two distinct mutexes
//     with the same terminal name;
//   * lambdas are treated as plain blocks: guards held at the definition
//     site flow into the lambda body. That is wrong for lambdas stored and
//     invoked later, and exactly right for the immediately-running worker /
//     watchdog closures the campaign layer uses.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rbs_lint/token.hpp"

namespace rbs::lint {

/// A data member annotated RBS_GUARDED_BY(m) in some class of the
/// translation unit (own file or a resolved quoted include).
struct GuardedMember {
  std::string class_name;  ///< declaring class (possibly a local struct)
  std::string name;        ///< member identifier
  std::string mutex;       ///< final identifier of the guard expression
  int line = 0;
};

/// One annotation family's marks on a function: the real-time family
/// (support/rt_annotations.hpp: RBS_HOT_PATH, RBS_RT_SAFE, RBS_RT_ESCAPE) or
/// the determinism family (support/det_annotations.hpp: RBS_DET_PATH,
/// RBS_DET_SAFE, RBS_DET_ESCAPE).
struct Discipline {
  bool root = false;    ///< RBS_HOT_PATH / RBS_DET_PATH: a root of the family's walk
  bool safe = false;    ///< RBS_*_SAFE: audited leaf, not scanned or descended
  bool escape = false;  ///< RBS_*_ESCAPE(reason): justified exception
  bool escape_has_reason = false;  ///< the escape carried a non-empty reason

  /// True when any of the family's macros is present.
  bool marked() const { return root || safe || escape; }
};

/// One function definition with a body.
struct FunctionInfo {
  std::string class_name;  ///< enclosing class or out-of-line qualifier; "" for free functions
  std::string name;
  std::size_t header_begin = 0;  ///< first token of the declaration head
  std::size_t body_begin = 0;    ///< token index of the opening '{'
  std::size_t body_end = 0;      ///< token index of the matching '}'
  int line = 0;
  /// Mutex names granted inside the body: RBS_REQUIRES plus (pragmatically)
  /// RBS_ACQUIRE / RBS_RELEASE, read from the definition site.
  std::vector<std::string> held_mutexes;
  bool no_analysis = false;  ///< RBS_NO_THREAD_SAFETY_ANALYSIS on the definition
  /// Internal linkage: defined in an unnamed namespace, or declared `static`
  /// outside any class. The api-unreached pass (api.hpp) skips these.
  bool internal_linkage = false;

  // Real-time and determinism marks, read from the definition site; the
  // discipline walk (walk.hpp) merges in declaration-site annotations too.
  Discipline rt;
  Discipline det;
};

/// A function *declaration* (no body) carrying rt or det annotations, e.g.
/// `void step() RBS_HOT_PATH;` in a class or header. The discipline walk
/// (walk.hpp) matches these to definitions by (class, name) so annotating
/// either site is enough.
struct RtDecl {
  std::string class_name;  ///< enclosing class or out-of-line qualifier; "" for free
  std::string name;
  Discipline rt;
  Discipline det;
  int line = 0;
};

/// Declaration index of one lexed file.
struct FileIndex {
  std::vector<GuardedMember> guarded;
  std::vector<FunctionInfo> functions;
  std::vector<RtDecl> rt_decls;

  /// First guarded member with this identifier, or nullptr.
  const GuardedMember* find_guarded(const std::string& member) const;
};

FileIndex build_index(const std::vector<Token>& tokens);

/// Final identifier of the first argument in the paren group opening at
/// `open_paren` ("(state.mutex)" -> "mutex"; "(m, x)" -> "m"). Empty when
/// the group is empty or malformed.
std::string guard_argument(const std::vector<Token>& tokens, std::size_t open_paren);

/// RAII-guard dataflow over one function body: tracks lock_guard /
/// unique_lock / scoped_lock / LockGuard / UniqueLock locals (including
/// mid-scope guard.unlock() / guard.lock() toggles) and which mutexes are
/// currently held. Drive it token by token in body order.
class GuardTracker {
 public:
  /// Observes token `i`; call once per body token, in order. `depth` is the
  /// brace depth managed by the caller ('{' already counted when tokens
  /// inside the new scope arrive).
  void observe(const std::vector<Token>& tokens, std::size_t i, int depth);

  /// Drops guards that died with a scope close back down to `depth`.
  void close_scope(int depth);

  /// True when a live guard holds `mutex` (final-identifier match).
  bool holds(const std::string& mutex) const;

  /// True when `name` is a tracked RAII guard variable.
  bool is_guard_var(const std::string& name) const;

 private:
  struct Guard {
    std::string var;
    std::string mutex;
    int depth = 0;
    bool active = true;
  };
  std::vector<Guard> guards_;
};

/// True for the RAII wrapper type names GuardTracker recognizes.
bool is_raii_guard_type(const std::string& ident);

}  // namespace rbs::lint
