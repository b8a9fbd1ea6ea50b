// rbs_bench: one workload per invocation, one JSON record on the last line
// of stdout (see README.md and run.py, which is the command users run).
//
//   rbs_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--digests FILE] [--trace-dir DIR]
//   rbs_bench --smoke [--digests FILE]
//
// --smoke runs every workload at minimal scale with every correctness check
// on and no timing claims (the ctest `bench_suite_smoke`). Exit codes: 0 all
// checks passed, 1 a check failed, 2 usage error or an untimeable build.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "suite.hpp"

#ifndef RBS_SUITE_BUILD_TYPE
#define RBS_SUITE_BUILD_TYPE "unknown"
#endif
#ifndef RBS_SUITE_CXX_FLAGS
#define RBS_SUITE_CXX_FLAGS ""
#endif
#ifndef RBS_SUITE_COMPILER
#define RBS_SUITE_COMPILER "unknown"
#endif
#ifndef RBS_SUITE_GIT
#define RBS_SUITE_GIT "unknown"
#endif

namespace rbs::suite {

bool write_chrome_trace(const std::string& path, const std::vector<TraceEvent>& events,
                        std::int64_t origin_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"item\":%llu}}\n",
                 i == 0 ? "" : ",", e.name, e.tid,
                 static_cast<double>(e.start_ns - origin_ns) / 1e3,
                 static_cast<double>(e.end_ns - e.start_ns) / 1e3,
                 static_cast<unsigned long long>(e.item));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

double span_cost_ns() {
  constexpr int kRounds = 200'000;
  ItemTrace trace;
  const std::int64_t start = mono_ns();
  for (int i = 0; i < kRounds; ++i) {
    trace.open_span(Layer::kAnalyze);
    trace.close_span();
  }
  return static_cast<double>(mono_ns() - start) / kRounds;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

constexpr const char* kWorkloads[] = {"campaign_paper", "analyze_wide",   "sim_validate",
                                      "multicore_k1",   "service_steady", "service_overload"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  const std::string text = buffer;
  // JSON has no inf/nan: such a metric is a bug, reported as null.
  return text.find_first_of("in") == std::string::npos ? text : "null";
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string(RBS_SUITE_CXX_FLAGS).find("-fsanitize") != std::string::npos;
#endif
}

/// How this binary was built and where it runs.
std::vector<std::pair<std::string, std::string>> context(unsigned workers) {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  char loadavg[64];
  std::snprintf(loadavg, sizeof loadavg, "%.2f %.2f %.2f", load[0], load[1], load[2]);
  return {{"build_type", RBS_SUITE_BUILD_TYPE},
          {"cxx_flags", RBS_SUITE_CXX_FLAGS},
          {"compiler", RBS_SUITE_COMPILER},
          {"git", RBS_SUITE_GIT},
          {"sanitized", sanitized_build() ? "yes" : "no"},
          {"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"loadavg", loadavg},
          {"workers", std::to_string(workers)}};
}

std::string record(const RunOptions& options, const RunResult& result) {
  std::ostringstream out;
  out << "{\"workload\":" << json_string(options.workload) << ",\"seed\":" << options.seed
      << ",\"seconds\":" << json_number(options.seconds)
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"correct\":" << (result.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
      << ",\"problems\":[";
  for (std::size_t i = 0; i < result.problems.size(); ++i)
    out << (i == 0 ? "" : ",") << json_string(result.problems[i]);
  out << "],\"context\":{";
  bool first = true;
  for (const auto& [key, value] : context(options.workers)) {
    out << (first ? "" : ",") << json_string(key) << ":" << json_string(value);
    first = false;
  }
  out << "},\"notes\":{";
  first = true;
  for (const auto& [key, value] : result.notes) {
    out << (first ? "" : ",") << json_string(key) << ":" << json_string(value);
    first = false;
  }
  out << "},\"metrics\":{";
  first = true;
  for (const auto& [name, metric] : result.metrics) {
    out << (first ? "" : ",") << json_string(name)
        << ":{\"value\":" << json_number(metric.value)
        << ",\"unit\":" << json_string(metric.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

/// digests.txt: `workload seed digest` per line, '#' starts a comment.
bool load_digests(const std::string& path, DigestTable& table) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, digest;
    if (fields >> workload >> seed >> digest) table[workload + "/" + seed] = digest;
  }
  return true;
}

RunResult run_one(const RunOptions& options) {
  RunResult result = is_batch_workload(options.workload) ? run_batch(options)
                                                         : run_service(options);
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

int usage(const std::string& why) {
  std::cerr << "rbs_bench: " << why
            << "\nusage: rbs_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--digests FILE] [--trace-dir DIR]\n"
               "       rbs_bench --smoke [--digests FILE]\n";
  return 2;
}

}  // namespace
}  // namespace rbs::suite

int main(int argc, char** argv) {
  using namespace rbs::suite;
  RunOptions options;
  // W = nproc - 1: batch runs leave one core free, service runs give it to
  // the load generator, so no run has more than nproc threads busy.
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  options.workers = std::max(1U, nproc - 1);
  std::string digests_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds >= 0.0 && options.seconds <= 3600.0))
        return usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--digests") {
      digests_path = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  DigestTable digests;
  if (!digests_path.empty()) {
    if (!load_digests(digests_path, digests)) return usage("cannot read " + digests_path);
    options.digests = &digests;
  }

  if (options.smoke) {
    // Minimal scale: batch workloads process just their check prefix on the
    // two seeds with recorded digests, the service ones a 0.2 s schedule.
    // Every check stays on.
    bool ok = true;
    for (const char* workload : kWorkloads) {
      const bool batch = is_batch_workload(workload);
      for (const std::uint64_t seed : {1, 2}) {
        if (!batch && seed != 1) continue;
        RunOptions smoke = options;
        smoke.workload = workload;
        smoke.seed = seed;
        smoke.seconds = batch ? 0.0 : 0.2;
        const RunResult result = run_one(smoke);
        std::cout << record(smoke, result) << "\n";
        ok = ok && result.failed == 0;
      }
    }
    return ok ? 0 : 1;
  }

  if (!is_batch_workload(options.workload) && !is_service_workload(options.workload))
    return usage("unknown --workload '" + options.workload + "'");
  if (std::string(RBS_SUITE_BUILD_TYPE) != "Release" || sanitized_build()) {
    std::cerr << "rbs_bench: refusing to time a " << RBS_SUITE_BUILD_TYPE
              << (sanitized_build() ? " sanitizer" : "")
              << " build; configure bench/suite with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const RunResult result = run_one(options);
  std::cout << record(options, result) << std::endl;
  return result.failed == 0 ? 0 : 1;
}
