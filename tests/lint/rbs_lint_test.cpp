// Golden-diff of the lint engine over the fixture corpus (tests/lint/corpus).
//
// The corpus holds one fixture per rule with known violations, plus
// suppression and false-positive guards that must stay silent. expected.txt
// records every diagnostic with paths relative to the corpus root, so the
// diff is stable across checkouts; regenerate it by running the rbs_lint
// binary over tests/lint/corpus and stripping the prefix.
#include "rbs_lint/lint.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rbs_lint/api.hpp"

namespace rbs::lint {
namespace {

const std::string kCorpusDir = RBS_LINT_CORPUS_DIR;
const std::string kExpectedFile = RBS_LINT_EXPECTED_FILE;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string relative_to_corpus(std::string path) {
  if (path.rfind(kCorpusDir, 0) == 0) {
    path.erase(0, kCorpusDir.size());
    if (!path.empty() && path.front() == '/') path.erase(0, 1);
  }
  return path;
}

std::vector<std::string> corpus_lines(const Options& options = {}) {
  std::vector<std::string> lines;
  for (Diagnostic d : lint_paths({kCorpusDir}, options)) {
    d.file = relative_to_corpus(d.file);
    lines.push_back(format(d));
  }
  return lines;
}

TEST(RbsLintCorpusTest, GoldenDiagnostics) {
  std::ostringstream actual;
  for (const std::string& line : corpus_lines()) actual << line << '\n';
  EXPECT_EQ(actual.str(), read_file(kExpectedFile))
      << "corpus diagnostics drifted from tests/lint/expected.txt; if the "
         "change is intentional, regenerate the golden file";
}

TEST(RbsLintCorpusTest, EveryRuleFiresSomewhereInCorpus) {
  const std::vector<std::string> lines = corpus_lines();
  for (const std::string& rule : all_rule_names()) {
    // The corpus has no main, so api-unreached reports nothing there by
    // design; its fixture program lives in api_reach_test.cpp.
    if (rule == kRuleApiUnreached) continue;
    const std::string tag = "[" + rule + "]";
    bool found = false;
    for (const std::string& line : lines)
      if (line.find(tag) != std::string::npos) found = true;
    EXPECT_TRUE(found) << "no corpus fixture exercises rule " << rule;
  }
}

TEST(RbsLintCorpusTest, SuppressionAndCleanFixturesStaySilent) {
  for (const Diagnostic& d : lint_paths({kCorpusDir})) {
    const std::string file = relative_to_corpus(d.file);
    EXPECT_EQ(file.find("suppressed_ok"), std::string::npos) << format(d);
    EXPECT_EQ(file.find("clean_ok"), std::string::npos) << format(d);
    EXPECT_EQ(file.find("clean_header_ok"), std::string::npos) << format(d);
    EXPECT_EQ(file.find("gen/rng.hpp"), std::string::npos) << format(d);
  }
}

TEST(RbsLintCorpusTest, RuleFilterRestrictsDiagnostics) {
  Options only_float_eq;
  only_float_eq.rules = {"float-eq"};
  const std::vector<std::string> lines = corpus_lines(only_float_eq);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines)
    EXPECT_NE(line.find("[float-eq]"), std::string::npos) << line;
}

TEST(RbsLintCorpusTest, ExcludeFragmentSkipsFiles) {
  Options options;
  options.excludes = {"nondet_bad"};
  for (const std::string& line : corpus_lines(options))
    EXPECT_EQ(line.find("nondet_bad"), std::string::npos) << line;
}

TEST(RbsLintCorpusTest, MissingPathIsAnIoError) {
  const std::vector<Diagnostic> diags = lint_paths({kCorpusDir + "/no_such_dir"});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "io-error");
}

TEST(RbsLintSourceTest, SuppressionCoversOwnAndNextLine) {
  const std::string text =
      "// rbs-lint: allow(float-eq)\n"
      "bool a(double s) { return s == 1.0; }\n"
      "bool b(double s) { return s == 1.0; }\n";
  const std::vector<Diagnostic> diags = lint_source("src/x.cpp", text);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_EQ(diags[0].rule, "float-eq");
}

TEST(RbsLintSourceTest, StringsAndCommentsNeverLeakTokens) {
  const std::string text =
      "// in a comment: s == 1.0 and 1e-9 and rand()\n"
      "const char* kDoc = \"s == 1.0, slack 1e-9\"; /* u != 0.5 */\n";
  EXPECT_TRUE(lint_source("src/x.cpp", text).empty());
}

TEST(RbsLintPathTest, NormalizePathCanonicalizes) {
  EXPECT_EQ(normalize_path("./a//b/../c"), "a/c");
  EXPECT_EQ(normalize_path("src//campaign/./pool.cpp"), "src/campaign/pool.cpp");
  EXPECT_EQ(normalize_path("/abs//x/./y.hpp"), "/abs/x/y.hpp");
  EXPECT_EQ(normalize_path("plain.cpp"), "plain.cpp");
}

TEST(RbsLintPathTest, PositionalPathsAreNormalizedBeforeWalking) {
  // A messy spelling of the corpus root must report the same clean paths as
  // the canonical one (regression: exclusion fragments used to miss because
  // walked paths carried the messy prefix verbatim).
  const std::vector<std::string> clean = corpus_lines();
  std::vector<std::string> messy;
  for (Diagnostic d : lint_paths({kCorpusDir + "/./src//"})) {
    EXPECT_EQ(d.file.find("/./"), std::string::npos) << d.file;
    EXPECT_EQ(d.file.find("//"), std::string::npos) << d.file;
    d.file = relative_to_corpus(d.file);
    messy.push_back(format(d));
  }
  EXPECT_EQ(messy, clean);
}

TEST(RbsLintPathTest, ExcludeFragmentsAreNormalized) {
  Options options;
  options.excludes = {".//nondet_bad.cpp"};
  for (const std::string& line : corpus_lines(options))
    EXPECT_EQ(line.find("nondet_bad"), std::string::npos) << line;
}

TEST(RbsLintBaselineTest, ParsesEntriesAndSkipsComments) {
  const std::vector<BaselineEntry> entries = parse_baseline(
      "# header comment\n"
      "\n"
      "float-eq|src/x.cpp|raw `==` against 1.0\n"
      "not-a-valid-line\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "float-eq");
  EXPECT_EQ(entries[0].path, "src/x.cpp");
  EXPECT_EQ(entries[0].message, "raw `==` against 1.0");
}

TEST(RbsLintBaselineTest, SuppressesBySuffixAtComponentBoundary) {
  std::vector<Diagnostic> diags = lint_source(
      "repo/src/x.cpp", "bool a(double s) { return s == 1.0; }\n");
  ASSERT_EQ(diags.size(), 1u);
  const std::string line = to_baseline_line(diags[0]);
  EXPECT_EQ(line.rfind("float-eq|repo/src/x.cpp|", 0), 0u) << line;

  // "src/x.cpp" matches repo/src/x.cpp at a component boundary...
  std::vector<Diagnostic> copy = diags;
  EXPECT_EQ(apply_baseline(
                copy, parse_baseline("float-eq|src/x.cpp|" + diags[0].message + "\n")),
            1u);
  EXPECT_TRUE(copy.empty());
  // ...but "rc/x.cpp" must not (mid-component), and a different message must not.
  copy = diags;
  EXPECT_EQ(apply_baseline(
                copy, parse_baseline("float-eq|rc/x.cpp|" + diags[0].message + "\n")),
            0u);
  EXPECT_EQ(apply_baseline(copy, parse_baseline("float-eq|src/x.cpp|other\n")), 0u);
  EXPECT_EQ(copy.size(), 1u);
}

TEST(RbsLintJsonTest, FormatJsonEscapesAndStructures) {
  const std::vector<Diagnostic> diags = {
      {"src/a.cpp", 3, "float-eq", "raw `==` with \"quotes\" and \\slash"}};
  const std::string json = format_json(diags);
  EXPECT_NE(json.find("\"file\": \"src/a.cpp\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"float-eq\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\\slash"), std::string::npos) << json;
  EXPECT_EQ(format_json({}), "[]\n");
}

TEST(RbsLintRuleListTest, EveryRuleHasASummary) {
  const std::vector<RuleInfo> rules = all_rules();
  ASSERT_EQ(rules.size(), 17u);
  for (const RuleInfo& rule : rules) {
    EXPECT_FALSE(rule.name.empty());
    EXPECT_FALSE(rule.summary.empty()) << rule.name;
  }
  EXPECT_EQ(all_rule_names().size(), 17u);
}

TEST(RbsLintSourceTest, LockDisciplineHonorsGuardScopes) {
  const std::string text =
      "#include \"support/thread_annotations.hpp\"\n"
      "class Box {\n"
      " public:\n"
      "  void bad() {\n"
      "    { const rbs::LockGuard lock(mutex_); v_ = 1; }\n"
      "    v_ = 2;\n"  // guard died with the inner scope
      "  }\n"
      " private:\n"
      "  rbs::Mutex mutex_;\n"
      "  int v_ RBS_GUARDED_BY(mutex_) = 0;\n"
      "};\n";
  Options options;
  options.rules = {"lock-discipline"};
  const std::vector<Diagnostic> diags = lint_source("src/box.cpp", text, options);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 6);
}

}  // namespace
}  // namespace rbs::lint
