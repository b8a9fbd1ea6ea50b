// The scope tracker / declaration index (tools/rbs_lint/semantic.hpp) on the
// shapes the rt pass leans on: lambdas folding into their enclosing function,
// nested-class member attribution, out-of-line definitions, rt-annotated
// declarations, and leading annotation macros on definition heads.
#include "rbs_lint/semantic.hpp"

#include <string>

#include <gtest/gtest.h>

#include "rbs_lint/token.hpp"

namespace rbs::lint {
namespace {

FileIndex index_of(const std::string& text) { return build_index(lex(text).tokens); }

const FunctionInfo* find_fn(const FileIndex& index, const std::string& name) {
  for (const FunctionInfo& fn : index.functions)
    if (fn.name == name) return &fn;
  return nullptr;
}

TEST(SemanticIndexTest, LambdaBodyBelongsToEnclosingFunction) {
  // A lambda intro is classified as a plain block, so the enclosing
  // function's body range spans the whole lambda; no phantom function is
  // indexed for the closure.
  const FileIndex index = index_of(
      "int outer(int n) {\n"
      "  auto twice = [n](int k) { return k + n; };\n"
      "  return twice(n);\n"
      "}\n");
  ASSERT_EQ(index.functions.size(), 1u);
  const FunctionInfo& fn = index.functions[0];
  EXPECT_EQ(fn.name, "outer");
  EXPECT_EQ(fn.class_name, "");
  // The body closes at the function's final '}', past the lambda's own '}'.
  EXPECT_GT(fn.body_end, fn.body_begin);
  const std::vector<Token> tokens = lex(
      "int outer(int n) {\n"
      "  auto twice = [n](int k) { return k + n; };\n"
      "  return twice(n);\n"
      "}\n").tokens;
  EXPECT_EQ(fn.body_end, tokens.size() - 1);
}

TEST(SemanticIndexTest, NestedClassMembersAttributeToInnerClass) {
  const FileIndex index = index_of(
      "struct Outer {\n"
      "  struct Inner {\n"
      "    int inner_fn() { return 1; }\n"
      "  };\n"
      "  int outer_fn() { return 2; }\n"
      "};\n");
  const FunctionInfo* inner = find_fn(index, "inner_fn");
  const FunctionInfo* outer = find_fn(index, "outer_fn");
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(inner->class_name, "Inner");
  EXPECT_EQ(outer->class_name, "Outer");
}

TEST(SemanticIndexTest, LocalStructInsideFunctionBody) {
  const FileIndex index = index_of(
      "void host() {\n"
      "  struct Local {\n"
      "    int get() { return 3; }\n"
      "  };\n"
      "}\n");
  const FunctionInfo* get = find_fn(index, "get");
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->class_name, "Local");
  ASSERT_NE(find_fn(index, "host"), nullptr);
}

TEST(SemanticIndexTest, OutOfLineMemberDefinitionCarriesQualifier) {
  const FileIndex index = index_of(
      "void Foo::bar(int n) { (void)n; }\n"
      "Foo::~Foo() { }\n");
  const FunctionInfo* bar = find_fn(index, "bar");
  ASSERT_NE(bar, nullptr);
  EXPECT_EQ(bar->class_name, "Foo");
  // The destructor attributes to Foo as well ('~' is stepped over).
  const FunctionInfo* dtor = find_fn(index, "Foo");
  ASSERT_NE(dtor, nullptr);
  EXPECT_EQ(dtor->class_name, "Foo");
}

TEST(SemanticIndexTest, RtAnnotatedDeclarationIsHarvested) {
  const FileIndex index = index_of(
      "struct Engine {\n"
      "  void step() RBS_HOT_PATH;\n"
      "  int audited() RBS_RT_SAFE;\n"
      "};\n"
      "int cold_boot() RBS_RT_ESCAPE(startup_runs_before_admission);\n");
  ASSERT_EQ(index.rt_decls.size(), 3u);

  const RtDecl& step = index.rt_decls[0];
  EXPECT_EQ(step.class_name, "Engine");
  EXPECT_EQ(step.name, "step");
  EXPECT_TRUE(step.rt.root);
  EXPECT_FALSE(step.rt.safe);

  const RtDecl& audited = index.rt_decls[1];
  EXPECT_EQ(audited.class_name, "Engine");
  EXPECT_TRUE(audited.rt.safe);

  const RtDecl& boot = index.rt_decls[2];
  EXPECT_EQ(boot.class_name, "");
  EXPECT_EQ(boot.name, "cold_boot");
  EXPECT_TRUE(boot.rt.escape);
  EXPECT_TRUE(boot.rt.escape_has_reason);
}

TEST(SemanticIndexTest, PlainStatementsAreNotHarvestedAsDeclarations) {
  // The ';' harvest only classifies heads that mention an rt annotation, so
  // ordinary call statements and locals never become phantom declarations.
  const FileIndex index = index_of(
      "void run(int n) {\n"
      "  helper(n);\n"
      "  int total = n + 1;\n"
      "  (void)total;\n"
      "}\n");
  EXPECT_TRUE(index.rt_decls.empty());
  ASSERT_EQ(index.functions.size(), 1u);
  EXPECT_EQ(index.functions[0].name, "run");
}

TEST(SemanticIndexTest, LeadingAnnotationDoesNotShadowFunctionName) {
  // Regression: the function-name search used to match the annotation macro
  // itself as the `ident (` candidate and misclassify the head as a block.
  const FileIndex index = index_of(
      "RBS_RT_ESCAPE(cold_error_path_runs_once) int cold(int v) { return v; }\n"
      "RBS_HOT_PATH int hot(int v) { return v; }\n"
      "RBS_RT_SAFE int leaf() { return 1; }\n");
  const FunctionInfo* cold = find_fn(index, "cold");
  const FunctionInfo* hot = find_fn(index, "hot");
  const FunctionInfo* leaf = find_fn(index, "leaf");
  ASSERT_NE(cold, nullptr);
  ASSERT_NE(hot, nullptr);
  ASSERT_NE(leaf, nullptr);
  EXPECT_TRUE(cold->rt.escape);
  EXPECT_TRUE(cold->rt.escape_has_reason);
  EXPECT_TRUE(hot->rt.root);
  EXPECT_TRUE(leaf->rt.safe);
}

TEST(SemanticIndexTest, GnuAttributeDoesNotHideDefinition) {
  // Regression: `__attribute__((flatten))` before an out-of-line definition
  // was taken as the `ident (` candidate, so the definition was never
  // indexed and no rt/det walk reached its body (src/sim/event_kernel.cpp).
  const FileIndex index = index_of(
      "#if defined(__GNUC__)\n"
      "__attribute__((flatten))\n"
      "#endif\n"
      "Report Kernel::run(const Set& set) { return step(set); }\n");
  const FunctionInfo* run = find_fn(index, "run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->class_name, "Kernel");
  EXPECT_EQ(find_fn(index, "__attribute__"), nullptr);
}

TEST(SemanticIndexTest, TrailingAnnotationOnDefinitionIsRead) {
  const FileIndex index = index_of(
      "struct Sim {\n"
      "  int run() RBS_HOT_PATH { return tick(); }\n"
      "  int tick() { return 0; }\n"
      "};\n");
  const FunctionInfo* run = find_fn(index, "run");
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(run->rt.root);
  EXPECT_EQ(run->class_name, "Sim");
}

TEST(SemanticIndexTest, ReasonlessEscapeRecordsMissingReason) {
  const FileIndex index = index_of("RBS_RT_ESCAPE() int cold() { return 0; }\n");
  const FunctionInfo* cold = find_fn(index, "cold");
  ASSERT_NE(cold, nullptr);
  EXPECT_TRUE(cold->rt.escape);
  EXPECT_FALSE(cold->rt.escape_has_reason);
}

TEST(SemanticIndexTest, GuardedMembersInNestedClasses) {
  const FileIndex index = index_of(
      "struct Outer {\n"
      "  struct Inner {\n"
      "    int v RBS_GUARDED_BY(inner_mutex) = 0;\n"
      "  };\n"
      "  int w RBS_GUARDED_BY(outer_mutex) = 0;\n"
      "};\n");
  ASSERT_EQ(index.guarded.size(), 2u);
  EXPECT_EQ(index.guarded[0].class_name, "Inner");
  EXPECT_EQ(index.guarded[0].mutex, "inner_mutex");
  EXPECT_EQ(index.guarded[1].class_name, "Outer");
  EXPECT_EQ(index.guarded[1].mutex, "outer_mutex");
}

// Indirect dispatch (function pointers, std::function) is invisible to the
// name-based index: the callee never appears as an `ident (` call with a
// resolvable name, so rt.cpp's walk skips it -- the documented conservative
// fallback (docs/static-analysis.md). This pins down that no phantom
// function is indexed for such declarations either.
TEST(SemanticIndexTest, IndirectionDeclarationsIndexOnlyRealFunctions) {
  const FileIndex index = index_of(
      "int dispatch(int (*fp)(int), const std::function<int()>& fn) {\n"
      "  return fp(1) + fn();\n"
      "}\n");
  ASSERT_EQ(index.functions.size(), 1u);
  EXPECT_EQ(index.functions[0].name, "dispatch");
}

}  // namespace
}  // namespace rbs::lint
