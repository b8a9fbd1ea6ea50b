// The determinism discipline pass (tools/rbs_lint/det.hpp): rule unit tests
// driven through lint_source strings, cross-file reachability and pooled
// unordered names through det_check directly, the dual-gate mutant test over
// the real campaign gather path (static: rbs_det catches the injected
// unordered iteration; runtime: a jobs-1-vs-8 byte-compare catches the
// completion-order gather it produces), and whole-tool serial/parallel
// output identity across all seventeen rules.
#include "rbs_lint/det.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/supervisor.hpp"
#include "rbs_lint/lint.hpp"

namespace rbs::lint {
namespace {

const std::string kSourceDir = RBS_SOURCE_DIR;

Options det_only() {
  Options options;
  options.rules = {kRuleDetUnorderedIter, kRuleDetWallclock, kRuleDetRng,
                   kRuleDetFpReassoc};
  return options;
}

std::vector<std::string> det_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (const Diagnostic& d : lint_source("src/unit.cpp", text, det_only()))
    lines.push_back(format(d));
  return lines;
}

bool any_contains(const std::vector<std::string>& lines, const std::string& needle) {
  for (const std::string& line : lines)
    if (line.find(needle) != std::string::npos) return true;
  return false;
}

TEST(DetDisciplineTest, CleanDetFunctionStaysSilent) {
  EXPECT_TRUE(det_lines("RBS_DET_PATH double f(const std::vector<double>& v) {\n"
                        "  double s = 0.0;\n"
                        "  for (const double x : v) s = s + x;\n"
                        "  return s;\n"
                        "}\n")
                  .empty());
}

TEST(DetDisciplineTest, UnannotatedViolationsStaySilent) {
  EXPECT_TRUE(det_lines("struct S { std::unordered_map<int, int> m; };\n"
                        "int f(const S& s) {\n"
                        "  int n = 0;\n"
                        "  for (const auto& kv : s.m) n += kv.second;\n"
                        "  return n;\n"
                        "}\n")
                  .empty());
}

TEST(DetDisciplineTest, DirectViolationsInDetBody) {
  const auto lines = det_lines(
      "struct S { std::unordered_map<int, int> m; };\n"
      "RBS_DET_PATH int f(const S& s) {\n"
      "  int n = static_cast<int>(time(nullptr));\n"
      "  n += rand();\n"
      "  for (const auto& kv : s.m) n += kv.second;\n"
      "  return n;\n"
      "}\n");
  EXPECT_TRUE(any_contains(lines, "[det-wallclock] call to `time`"));
  EXPECT_TRUE(any_contains(lines, "[det-rng] call to `rand`"));
  EXPECT_TRUE(any_contains(lines, "[det-unordered-iter] range-for over unordered "
                                  "container `m`"));
}

TEST(DetDisciplineTest, ViolationReachedTransitively) {
  const auto lines = det_lines(
      "double stamp() { return static_cast<double>(time(nullptr)); }\n"
      "double mid() { return stamp(); }\n"
      "RBS_DET_PATH double root() { return mid(); }\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("call to `time` in `stamp`, reachable from det path `root`"),
            std::string::npos);
}

TEST(DetDisciplineTest, OrderedContainersStaySilent) {
  EXPECT_TRUE(det_lines("struct S { std::map<int, int> m; };\n"
                        "RBS_DET_PATH int f(const S& s) {\n"
                        "  int n = 0;\n"
                        "  for (const auto& kv : s.m) n += kv.second;\n"
                        "  return n + static_cast<int>(s.m.begin()->first);\n"
                        "}\n")
                  .empty());
}

TEST(DetDisciplineTest, ExplicitBeginOnUnorderedNameIsFlagged) {
  const auto lines = det_lines(
      "struct S { std::unordered_set<int> seen; };\n"
      "RBS_DET_PATH int f(const S& s) { return *s.seen.begin(); }\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("`seen.begin()` iterates an unordered container"),
            std::string::npos);
}

TEST(DetDisciplineTest, ClockTypeMentionIsFlagged) {
  const auto lines = det_lines(
      "RBS_DET_PATH double f() {\n"
      "  const auto t0 = std::chrono::steady_clock::now();\n"
      "  return t0.time_since_epoch().count() * 1.0;\n"
      "}\n");
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(any_contains(lines, "[det-wallclock] `steady_clock`"));
}

TEST(DetDisciplineTest, DefaultSeededEngineFlaggedSeededAllowed) {
  const auto flagged = det_lines(
      "RBS_DET_PATH int f() {\n"
      "  std::mt19937_64 e;\n"
      "  return static_cast<int>(e());\n"
      "}\n");
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_NE(flagged[0].find("default-seeded `mt19937_64`"), std::string::npos);

  EXPECT_TRUE(det_lines("RBS_DET_PATH int f(std::uint64_t seed) {\n"
                        "  std::mt19937_64 e(seed);\n"
                        "  return static_cast<int>(e());\n"
                        "}\n")
                  .empty());
}

TEST(DetDisciplineTest, RandomDeviceIsAlwaysFlagged) {
  const auto lines = det_lines(
      "RBS_DET_PATH int f() {\n"
      "  std::random_device rd;\n"
      "  return static_cast<int>(rd());\n"
      "}\n");
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(any_contains(lines, "[det-rng] `random_device`"));
}

TEST(DetDisciplineTest, FpAccumulationInsideSubmitIsFlagged) {
  const auto lines = det_lines(
      "struct Pool { void submit(int); };\n"
      "RBS_DET_PATH double f(Pool& pool, int jobs) {\n"
      "  double acc = 0.0;\n"
      "  for (int j = 0; j < jobs; ++j) pool.submit(static_cast<int>(acc += 1.0));\n"
      "  return acc;\n"
      "}\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("[det-fp-reassoc] floating-point accumulation `acc +=`"),
            std::string::npos);
}

TEST(DetDisciplineTest, FpAccumulationOutsideSubmitStaysSilent) {
  // Serial reduction over slots is exactly the discipline the rule points at.
  EXPECT_TRUE(det_lines("struct Pool { void submit(int); };\n"
                        "RBS_DET_PATH double f(Pool& pool,\n"
                        "                      const std::vector<double>& slots) {\n"
                        "  pool.submit(0);\n"
                        "  double acc = 0.0;\n"
                        "  for (const double v : slots) acc += v;\n"
                        "  return acc;\n"
                        "}\n")
                  .empty());
}

TEST(DetDisciplineTest, DetSafeStopsScanAndDescent) {
  EXPECT_TRUE(det_lines("struct S { std::unordered_map<int, int> m; };\n"
                        "RBS_DET_SAFE int audited(const S& s) {\n"
                        "  int n = 0;\n"
                        "  for (const auto& kv : s.m) n += kv.second;\n"
                        "  return n;\n"
                        "}\n"
                        "RBS_DET_PATH int root(const S& s) { return audited(s); }\n")
                  .empty());
}

TEST(DetDisciplineTest, EscapeWithReasonStopsWalk) {
  EXPECT_TRUE(det_lines("RBS_DET_ESCAPE(deadline_arming_never_in_output)\n"
                        "double arm() { return static_cast<double>(time(nullptr)); }\n"
                        "RBS_DET_PATH double root() { return arm(); }\n")
                  .empty());
}

TEST(DetDisciplineTest, EscapeWithoutReasonIsReportedAndIgnored) {
  const auto lines = det_lines(
      "RBS_DET_ESCAPE() double arm() { return static_cast<double>(time(nullptr)); }\n"
      "RBS_DET_PATH double root() { return arm(); }\n");
  // Two findings: the malformed escape, and the wall-clock read it no longer
  // shields (a missing reason must never silently widen the audited surface).
  EXPECT_TRUE(any_contains(lines, "has no reason"));
  EXPECT_TRUE(any_contains(lines, "call to `time` in `arm`"));
}

TEST(DetDisciplineTest, DeclarationSiteAnnotationReachesDefinition) {
  const auto lines = det_lines(
      "class Engine {\n"
      " public:\n"
      "  double report() RBS_DET_PATH;\n"
      "};\n"
      "double Engine::report() { return static_cast<double>(time(nullptr)); }\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("call to `time` in `report`"), std::string::npos);
}

TEST(DetDisciplineTest, IndirectCallsAreTheDocumentedFallback) {
  // std::function targets cannot be resolved by name, so the walk skips
  // them: item bodies are audited at their own definition sites.
  EXPECT_TRUE(det_lines("int sneaky() { return rand(); }\n"
                        "RBS_DET_PATH int root(const std::function<int()>& fn) {\n"
                        "  return fn();\n"
                        "}\n")
                  .empty());
}

TEST(DetDisciplineTest, SuppressionCommentSilencesRule) {
  EXPECT_TRUE(det_lines("struct S { std::unordered_map<int, int> m; };\n"
                        "RBS_DET_PATH int f(const S& s) {\n"
                        "  int n = 0;\n"
                        "  // rbs-lint: allow(det-unordered-iter)\n"
                        "  for (const auto& kv : s.m) n += kv.second;\n"
                        "  return n;\n"
                        "}\n")
                  .empty());
}

TEST(DetDisciplineTest, RuleSelectionFiltersFindings) {
  Options rng_only;
  rng_only.rules = {kRuleDetRng};
  const auto diags = lint_source("src/unit.cpp",
                                 "struct S { std::unordered_map<int, int> m; };\n"
                                 "RBS_DET_PATH int f(const S& s) {\n"
                                 "  int n = rand();\n"
                                 "  for (const auto& kv : s.m) n += kv.second;\n"
                                 "  return n;\n"
                                 "}\n",
                                 rng_only);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleDetRng);
}

TEST(DetDisciplineTest, ReachabilityCrossesFileBoundaries) {
  const Lexed a = lex("double stamp();\n"
                      "RBS_DET_PATH double root() { return stamp(); }\n");
  const Lexed b = lex("double stamp() { return static_cast<double>(time(nullptr)); }\n");
  const FileIndex ia = build_index(a.tokens);
  const FileIndex ib = build_index(b.tokens);
  const auto diags = det_check({{"src/a.cpp", &a, &ia}, {"src/b.cpp", &b, &ib}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/b.cpp");
  EXPECT_NE(diags[0].message.find("reachable from det path `root`"), std::string::npos);
}

TEST(DetDisciplineTest, UnorderedNamesArePooledAcrossFiles) {
  // A member declared unordered in the header flags iteration over the bare
  // name in the implementation file (final-identifier matching, the same
  // approximation the lock-discipline pass uses for mutex identity).
  const Lexed header = lex("struct Cache {\n"
                           "  std::unordered_map<int, int> entries_;\n"
                           "  int sum() const;\n"
                           "};\n");
  const Lexed impl = lex("RBS_DET_PATH int Cache::sum() const {\n"
                         "  int n = 0;\n"
                         "  for (const auto& kv : entries_) n += kv.second;\n"
                         "  return n;\n"
                         "}\n");
  const FileIndex ih = build_index(header.tokens);
  const FileIndex ii = build_index(impl.tokens);
  const auto diags =
      det_check({{"src/cache.hpp", &header, &ih}, {"src/cache.cpp", &impl, &ii}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleDetUnorderedIter);
  EXPECT_NE(diags[0].message.find("`entries_`"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dual-gate mutant test over the real campaign gather path
// (src/campaign/supervisor.cpp). Static half: the pristine file lints clean
// under the det rules, and the same file with an unordered_map iteration
// injected into Supervisor::run is caught. Runtime half below proves the
// byte-compare gate catches what such a mutant produces at run time.
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(DetDisciplineGateTest, PristineGatherPathIsClean) {
  const std::string path = kSourceDir + "/src/campaign/supervisor.cpp";
  const std::string text = read_file(path);
  ASSERT_NE(text.find("RBS_DET_PATH"), std::string::npos)
      << "supervisor.cpp lost its det-path annotation";
  EXPECT_TRUE(lint_source(path, text, det_only()).empty());
}

TEST(DetDisciplineGateTest, InjectedUnorderedGatherIsCaught) {
  const std::string path = kSourceDir + "/src/campaign/supervisor.cpp";
  std::string text = read_file(path);
  const std::string marker = "report.items.resize(count);";
  const std::size_t at = text.find(marker);
  ASSERT_NE(at, std::string::npos) << "Supervisor::run gather marker disappeared";
  text.insert(at + marker.size(),
              "\n  std::unordered_map<std::size_t, double> scratch;\n"
              "  for (const auto& kv : scratch) (void)kv;\n");
  const auto diags = lint_source(path, text, det_only());
  ASSERT_FALSE(diags.empty()) << "the det gate missed an unordered gather injection";
  EXPECT_EQ(diags[0].rule, kRuleDetUnorderedIter);
  EXPECT_NE(diags[0].message.find("`scratch`"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Runtime half of the dual gate: the shipped slot-array gather is
// byte-identical between --jobs 1 and --jobs 8; a completion-order gather
// (what unordered collection of parallel results degenerates to) is not.
// ---------------------------------------------------------------------------

std::string fmt17(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

double item_value(std::size_t i, rbs::Rng& rng) {
  // Magnitudes spread over ~16 decades so any FP reduction, and any gather
  // order, is visible in the serialized bytes.
  return rng.uniform(0.0, 1.0) * std::pow(10.0, static_cast<double>(i % 16));
}

campaign::CampaignReport run_items(unsigned jobs, std::size_t count,
                                   const campaign::SupervisedFn& fn) {
  campaign::SupervisorOptions options;
  options.campaign.seed = 42;
  options.campaign.jobs = jobs;
  return campaign::Supervisor(options).run(count, fn);
}

std::string slot_gather(unsigned jobs, std::size_t count) {
  const campaign::CampaignReport report =
      run_items(jobs, count, [](std::size_t i, rbs::Rng& rng, const campaign::CancelToken&) {
        return fmt17(item_value(i, rng));
      });
  std::string out;
  for (const campaign::ItemOutcome& item : report.items) {
    if (!out.empty()) out += ',';
    out += item.payload;
  }
  return out;
}

std::string completion_order_gather(unsigned jobs, std::size_t count) {
  std::mutex mutex;
  std::vector<double> arrived;
  arrived.reserve(count);
  (void)run_items(jobs, count,
                  [&mutex, &arrived](std::size_t i, rbs::Rng& rng,
                                     const campaign::CancelToken&) {
                    const double v = item_value(i, rng);
                    // Stall the first item so its arrival is forced out of
                    // input order under any concurrent schedule -- a
                    // single-core box otherwise drains cheap items in
                    // submission order often enough to make divergence flaky.
                    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
                    const std::lock_guard<std::mutex> lock(mutex);
                    arrived.push_back(v);
                    return std::string();
                  });
  std::string out;
  for (const double v : arrived) {
    if (!out.empty()) out += ',';
    out += fmt17(v);
  }
  return out;
}

TEST(DetRuntimeGateTest, SlotGatherIsByteIdenticalAcrossJobs) {
  const std::string serial = slot_gather(1, 512);
  EXPECT_EQ(serial, slot_gather(8, 512));
  EXPECT_EQ(serial, slot_gather(8, 512));  // and stable across repeat runs
}

TEST(DetRuntimeGateTest, CompletionOrderGatherIsCaughtByByteCompare) {
  const std::string reference = completion_order_gather(1, 512);
  // 512 items drained by 8 workers, with item 0 stalled 20ms: some later
  // item lands before it unless the pool fully serializes, ten times running.
  bool diverged = false;
  for (int attempt = 0; attempt < 10 && !diverged; ++attempt)
    diverged = completion_order_gather(8, 512) != reference;
  EXPECT_TRUE(diverged)
      << "completion-order gather was byte-identical to serial on every "
         "attempt; the runtime gate would miss a gather-order mutant";
}

// ---------------------------------------------------------------------------
// Whole-tool parity: one invocation running all seventeen rules (per-file,
// rt, det and api passes together) is byte-identical at any --jobs value.
// ---------------------------------------------------------------------------

TEST(DetParallelScanTest, AllRulesJobsOutputMatchesSerial) {
  const std::vector<std::string> roots = {
      kSourceDir + "/src/core", kSourceDir + "/src/campaign",
      kSourceDir + "/src/service", kSourceDir + "/tools/rbs_lint"};
  Options serial;
  serial.rules = all_rule_names();
  ASSERT_EQ(serial.rules.size(), 17u);
  Options parallel = serial;
  parallel.jobs = 8;
  const auto a = lint_paths(roots, serial);
  const auto b = lint_paths(roots, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(format(a[i]), format(b[i])) << "diverged at index " << i;
  EXPECT_EQ(format_json(a), format_json(b));
}

}  // namespace
}  // namespace rbs::lint
