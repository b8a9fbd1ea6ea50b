// The public-API reachability pass (tools/rbs_lint/api.hpp): a fixture
// program -- a tools/ main over src/ functions reached by a call, through a
// pointer, from a namespace-scope initializer, through a member and through
// a namespace qualifier, beside ones that nothing reaches and ones allowed
// with and without a reason -- driven through api_check directly, plus the
// no-main and rule-selection edges through lint_source.
#include "rbs_lint/api.hpp"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace rbs::lint {
namespace {

using Files = std::vector<std::pair<std::string, std::string>>;

/// api_check over `files` (path, text), formatted.
std::vector<std::string> api_lines(const Files& files) {
  std::vector<Lexed> lexed;
  std::vector<FileIndex> index;
  lexed.reserve(files.size());
  index.reserve(files.size());
  std::vector<RtUnit> units;
  for (const auto& [path, text] : files) {
    lexed.push_back(lex(text));
    index.push_back(build_index(lexed.back().tokens));
    units.push_back({path, &lexed.back(), &index.back()});
  }
  std::vector<std::string> lines;
  for (const Diagnostic& d : api_check(units)) lines.push_back(format(d));
  return lines;
}

const std::string kLibrary =
    "#include \"lib.hpp\"\n"                                               // 1
    "namespace {\n"                                                        // 2
    "int helper(int x) { return x + 1; }\n"                                // 3
    "}  // namespace\n"                                                    // 4
    "static int file_local(int x) { return x; }\n"                         // 5
    "int reached_from_member() { return 3; }\n"                            // 6
    "int Box::get() const { return reached_from_member(); }\n"             // 7
    "int size() { return 0; }\n"                                           // 8
    "int called(int x) { return helper(x); }\n"                            // 9
    "int pointee(int x) { return x * 2; }\n"                               // 10
    "int table_entry() { return 7; }\n"                                    // 11
    "const int kTable = table_entry();\n"                                  // 12
    "namespace lib {\n"                                                    // 13
    "int qualified(int x) { return x; }\n"                                 // 14
    "}  // namespace lib\n"                                                // 15
    "int only_from_unreached() { return 4; }\n"                            // 16
    "int unreached(int x) { return file_local(x) + only_from_unreached(); }\n"  // 17
    "// rbs-lint: allow(api-unreached) -- a test oracle, kept on purpose\n"     // 18
    "int allowed(int x) { return x; }\n"                                   // 19
    "// rbs-lint: allow(api-unreached)\n"                                  // 20
    "int allowed_without_reason(int x) { return x; }\n";                   // 21

const std::string kMain =
    "#include \"lib.hpp\"\n"
    "int apply(int (*f)(int), int x) { return f(x); }\n"
    "int main() {\n"
    "  Box box;\n"
    "  return called(1) + apply(pointee, 2) + box.get() + box.size() + lib::qualified(3);\n"
    "}\n";

TEST(ApiReachTest, ReportsOnlyWhatNoMainReaches) {
  const std::vector<std::string> lines =
      api_lines({{"src/lib.cpp", kLibrary}, {"tools/main.cpp", kMain}});
  const std::string unreached =
      "` has external linkage under src/, but no main in the scan reaches it; delete it, "
      "give it a caller, or allow it with a reason";
  const std::vector<std::string> want = {
      // A member call reaches members only, not the free function of that name.
      "src/lib.cpp:8: error: [api-unreached] `size" + unreached,
      // Reached only from a function nothing reaches.
      "src/lib.cpp:16: error: [api-unreached] `only_from_unreached" + unreached,
      "src/lib.cpp:17: error: [api-unreached] `unreached" + unreached,
      "src/lib.cpp:20: error: [api-unreached] allow(api-unreached) on "
      "`allowed_without_reason` gives no reason; say why it stays -- allow ignored",
      "src/lib.cpp:21: error: [api-unreached] `allowed_without_reason" + unreached,
  };
  EXPECT_EQ(lines, want);
}

TEST(ApiReachTest, NoMainReportsNothing) {
  EXPECT_TRUE(api_lines({{"src/lib.cpp", kLibrary}}).empty());
}

TEST(ApiReachTest, OnlyFunctionsUnderSrcAreReported) {
  // The same library outside src/ is reached or not alike, but never
  // reported: tools, benches and examples are programs, not the API.
  EXPECT_TRUE(api_lines({{"tools/lib.cpp", kLibrary}, {"tools/main.cpp", kMain}}).empty());
}

TEST(ApiReachTest, RuleSelectionFiltersFindings) {
  const std::string text =
      "int unreached() { return 1; }\n"
      "int main() { return 0; }\n";
  Options api;
  api.rules = {kRuleApiUnreached};
  const std::vector<Diagnostic> diags = lint_source("src/unit.cpp", text, api);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 1);
  Options other;
  other.rules = {"float-eq"};
  EXPECT_TRUE(lint_source("src/unit.cpp", text, other).empty());
}

}  // namespace
}  // namespace rbs::lint
