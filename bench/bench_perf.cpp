// Micro-benchmarks (google-benchmark) of the analysis and simulation
// kernels -- demand-bound evaluation, the fused sweep's speedup search
// (Theorem 2) and resetting-time solver (Corollary 5), the full analysis over
// task count n (BM_FusedAnalyzeN), the multicore decision probe
// (BM_FitsProbe), partition plus k = 1 resilience on a multicore system
// (BM_PartitionResilience), the min-x search on a paper and on a harmonic-grid
// skeleton (BM_MinXSearch, BM_MinXSearchHarmonic), task generation and
// simulator throughput. Campaign throughput is measured end to end by
// bench/suite/run.py (the campaign_paper workload).
//
// Campaign mode (instead of google-benchmark):
//
//   bench_perf --smoke [--jobs N] [--sets N] [--seed N] [--csv <dir>]
//
// runs the same generate-and-analyze campaign twice on the campaign engine
// (campaign/supervisor.hpp), at --jobs 1 and at --jobs N, byte-compares
// every result row (the determinism contract: output depends only on seed
// and item count, never on the worker count) and prints both throughputs.
// Exit code 1 when an item fails to complete in either pass or any row
// differs. `--campaign` is an alias for `--smoke`. This
// is the `ctest -L campaign` smoke gate; CI also runs it under TSan and ASan.
//
// `--checkpoint <path>` / `--resume` journal the --jobs N pass
// (`<path>.perf.journal`); `--item-deadline S` / `--retries N` set its
// fault policy. The --jobs 1 pass is never journaled.
//
// `--json PATH` emits a machine-readable baseline: in benchmark mode it is
// shorthand for google-benchmark's `--benchmark_out=PATH` with JSON format
// (the results/BENCH_perf.json artifact, refreshed from a Release build with
// `bench_perf --json results/BENCH_perf.json`); in campaign mode it writes a
// small throughput summary. Every benchmark-mode report carries our build
// context (rbs_build_type, rbs_cxx_flags, rbs_compiler, rbs_git).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "multi/resilience.hpp"
#include "rbs.hpp"
#include "sim/simulate.hpp"

// Build context, set by bench/CMakeLists.txt.
#ifndef RBS_PERF_BUILD_TYPE
#define RBS_PERF_BUILD_TYPE "unknown"
#endif
#ifndef RBS_PERF_CXX_FLAGS
#define RBS_PERF_CXX_FLAGS ""
#endif
#ifndef RBS_PERF_COMPILER
#define RBS_PERF_COMPILER "unknown"
#endif
#ifndef RBS_PERF_GIT
#define RBS_PERF_GIT "unknown"
#endif

namespace {

using namespace rbs;

TaskSet make_set(std::uint64_t seed, double u_bound, double x, double y) {
  Rng rng(seed);
  GenParams params;
  params.u_bound = u_bound;
  for (int attempt = 0; attempt < 100; ++attempt) {
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const MinXResult mx = min_x_for_lo(*skeleton);
    if (!mx.feasible) continue;
    return skeleton->materialize(x > 0 ? x : mx.x, y);
  }
  throw std::runtime_error("could not generate benchmark set");
}

// UUniFast skeleton of n tasks at U_LO = u_lo whose periods are re-drawn
// from a harmonic grid (hyperperiod 10^4 ticks), keeping each task's
// utilization and C(HI)/C(LO) up to rounding, and LO-mode feasible at x = 1.
// The grid bounds the breakpoint count, so the cost of an analysis follows n.
ImplicitSet make_harmonic_skeleton(int n, std::uint64_t seed, double u_lo = 0.6) {
  static constexpr std::array<Ticks, 8> kGrid = {200, 250, 500, 1000, 2000, 2500, 5000, 10000};
  Rng rng(seed);
  UUniFastParams params;
  params.n_tasks = n;
  params.u_total_lo = u_lo;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::vector<ImplicitTask> tasks = generate_uunifast_set(params, rng).tasks();
    for (ImplicitTask& t : tasks) {
      const double u = t.u_lo();
      const double gamma = static_cast<double>(t.c_hi) / static_cast<double>(t.c_lo);
      t.period = kGrid[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kGrid.size()) - 1))];
      t.c_lo = std::clamp<Ticks>(std::llround(u * static_cast<double>(t.period)), 1, t.period);
      t.c_hi = t.criticality == Criticality::HI
                   ? std::clamp<Ticks>(std::llround(gamma * static_cast<double>(t.c_lo)),
                                       t.c_lo, t.period)
                   : t.c_lo;
    }
    ImplicitSet skeleton(std::move(tasks));
    if (min_x_for_lo(skeleton).feasible) return skeleton;
  }
  throw std::runtime_error("could not generate harmonic benchmark set");
}

// make_harmonic_skeleton prepared at the exact minimum x and y = 2.
TaskSet make_harmonic_set(int n, std::uint64_t seed, double u_lo = 0.6) {
  const ImplicitSet skeleton = make_harmonic_skeleton(n, seed, u_lo);
  return skeleton.materialize(min_x_for_lo(skeleton).x, 2.0);
}

// ---------------------------------------------------------------------------
// Campaign workload: one item = generate a random set, prepare it, run one
// fused Analyzer sweep, format the result as a CSV row. The row strings are
// the unit of the byte-identity check.
// ---------------------------------------------------------------------------

std::string campaign_row(std::size_t index, const Analyzer& analyzer, Rng& rng) {
  GenParams params;
  params.u_bound = 0.7;
  const auto skeleton = bench::generate_with_retry(params, rng);
  if (!skeleton) return std::to_string(index) + ",skipped";
  const auto set = bench::materialize_min_x(*skeleton, 2.0);
  if (!set) return std::to_string(index) + ",infeasible";
  const AnalysisReport r = analyzer.analyze(*set, 2.0).value();
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "%zu,%.17g,%.17g,%d,%d,%zu", index, r.s_min,
                r.delta_r, r.lo_schedulable ? 1 : 0, r.hi_schedulable ? 1 : 0,
                r.fused_breakpoints);
  return buffer;
}

/// The campaign on a plain, unjournaled engine at `jobs` workers.
campaign::CampaignReport run_campaign(unsigned jobs, std::uint64_t seed, std::size_t n_sets,
                                      double* elapsed_s) {
  campaign::SupervisorOptions options;
  options.campaign = {jobs, seed};
  const campaign::Supervisor supervisor(options);
  const Analyzer analyzer;
  const auto t0 = std::chrono::steady_clock::now();
  const campaign::CampaignReport report = supervisor.run(
      n_sets, [&analyzer](std::size_t index, Rng& rng, const campaign::CancelToken&) {
        return campaign_row(index, analyzer, rng);
      });
  const auto t1 = std::chrono::steady_clock::now();
  if (elapsed_s) *elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  return report;
}

/// The same campaign with the full fault-tolerance stack (journaled when
/// --checkpoint is given).
campaign::CampaignReport run_supervised_campaign(const bench::CheckpointConfig& cfg,
                                                 const campaign::CampaignOptions& options,
                                                 std::size_t n_sets, double* elapsed_s) {
  const Analyzer analyzer;
  const auto t0 = std::chrono::steady_clock::now();
  const campaign::CampaignReport report = bench::run_checkpointed(
      cfg, "perf", options, n_sets,
      [&analyzer](std::size_t index, Rng& rng, const campaign::CancelToken&) {
        return campaign_row(index, analyzer, rng);
      });
  const auto t1 = std::chrono::steady_clock::now();
  if (elapsed_s) *elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  return report;
}

int run_campaign_mode(const CliArgs& args) {
  const campaign::CampaignOptions options = bench::parse_campaign(args, /*default_seed=*/1);
  const bench::CheckpointConfig checkpoint = bench::parse_checkpoint(args);
  const auto n_sets = static_cast<std::size_t>(args.get_int("sets", 200));
  campaign::CampaignOptions resolved = options;
  if (resolved.jobs == 0) resolved.jobs = campaign::Supervisor({.campaign = options}).jobs();

  std::cout << "campaign smoke: " << n_sets << " sets, seed " << options.seed
            << ", comparing --jobs 1 vs --jobs " << resolved.jobs << "\n";

  double serial_s = 0.0, parallel_s = 0.0;
  const campaign::CampaignReport serial = run_campaign(1, options.seed, n_sets, &serial_s);
  const campaign::CampaignReport parallel =
      run_supervised_campaign(checkpoint, resolved, n_sets, &parallel_s);

  // A quarantined item's payload is its error text and a pending item's is
  // empty, so an item failing the same way in both passes would byte-compare
  // equal: every item must have completed before the rows are compared.
  if (!serial.all_completed() || !parallel.all_completed()) {
    std::cout << "FAIL: " << n_sets - serial.completed << " item(s) did not complete at jobs=1, "
              << n_sets - parallel.completed << " at jobs=" << resolved.jobs << "\n";
    return 1;
  }

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n_sets; ++i) {
    const std::string& a = serial.items[i].payload;
    const std::string& b = parallel.items[i].payload;
    if (a != b && ++mismatches <= 5)
      std::cout << "MISMATCH at item " << i << ":\n  jobs=1: " << a << "\n  jobs="
                << resolved.jobs << ": " << b << "\n";
  }

  if (auto csv = bench::open_csv(args, "campaign.csv")) {
    csv->write_row({"index", "s_min", "delta_r", "lo_ok", "hi_ok", "fused_breakpoints"});
    for (const campaign::ItemOutcome& item : parallel.items) csv->write_raw_line(item.payload);
  }

  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  std::printf("jobs=1: %.3f s (%.1f sets/s)\n", serial_s,
              serial_s > 0.0 ? static_cast<double>(n_sets) / serial_s : 0.0);
  std::printf("jobs=%u: %.3f s (%.1f sets/s), speedup %.2fx\n", resolved.jobs, parallel_s,
              parallel_s > 0.0 ? static_cast<double>(n_sets) / parallel_s : 0.0, speedup);
  if (const std::string json_path = args.get_string("json", ""); !json_path.empty()) {
    if (std::FILE* json = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(json,
                   "{\n"
                   "  \"benchmark\": \"bench_perf_campaign\",\n"
                   "  \"sets\": %zu,\n"
                   "  \"jobs\": %u,\n"
                   "  \"serial_seconds\": %.6f,\n"
                   "  \"parallel_seconds\": %.6f,\n"
                   "  \"serial_sets_per_sec\": %.2f,\n"
                   "  \"parallel_sets_per_sec\": %.2f,\n"
                   "  \"speedup\": %.3f,\n"
                   "  \"mismatches\": %zu\n"
                   "}\n",
                   n_sets, resolved.jobs, serial_s, parallel_s,
                   serial_s > 0.0 ? static_cast<double>(n_sets) / serial_s : 0.0,
                   parallel_s > 0.0 ? static_cast<double>(n_sets) / parallel_s : 0.0,
                   speedup, mismatches);
      std::fclose(json);
    } else {
      std::cerr << "error: cannot write JSON '" << json_path << "'\n";
      return 1;
    }
  }

  if (mismatches > 0) {
    std::cout << "FAIL: " << mismatches << " row(s) differ between jobs=1 and jobs="
              << resolved.jobs << "\n";
    return 1;
  }
  std::cout << "OK: all " << n_sets << " rows byte-identical across worker counts\n";
  return 0;
}

// ---------------------------------------------------------------------------
// google-benchmark kernels
// ---------------------------------------------------------------------------

void BM_DbfHiTotal(benchmark::State& state) {
  const TaskSet set = make_set(1, 0.7, -1.0, 2.0);
  Ticks delta = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dbf_hi_total(set, delta));
    delta = delta % 100000 + 17;
  }
}
BENCHMARK(BM_DbfHiTotal);

// The Theorem 2 part of the facade alone. Arg n runs on the seed-n set of
// utilization n/10, so BM_MinSpeedup/7 is the BM_FusedAnalyze input.
void BM_MinSpeedup(benchmark::State& state) {
  const TaskSet set = make_set(static_cast<std::uint64_t>(state.range(0)),
                               static_cast<double>(state.range(0)) / 10.0, -1.0, 2.0);
  const Analyzer analyzer;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        analyzer.analyze(set, 2.0, {.speedup = true, .reset = false, .lo = false})
            .value()
            .s_min);
  state.SetLabel(std::to_string(set.size()) + " tasks");
}
BENCHMARK(BM_MinSpeedup)->Arg(4)->Arg(6)->Arg(7)->Arg(8);

// The Corollary 5 part of the facade alone, on the BM_FusedAnalyze input.
void BM_ResettingTime(benchmark::State& state) {
  const TaskSet set = make_set(7, 0.7, -1.0, 2.0);
  const Analyzer analyzer;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        analyzer.analyze(set, 2.0, {.speedup = false, .reset = true, .lo = false})
            .value()
            .delta_r);
}
BENCHMARK(BM_ResettingTime);

// Both parts in one fused sweep, on the same input as BM_MinSpeedup/7 and
// BM_ResettingTime: the shared ticks are fetched once. `breakpoints` is the
// fused sweep's tick count per call, so time / breakpoints is the cost of one
// tick; it depends only on the input, so a change to it is a change in work.
void BM_FusedAnalyze(benchmark::State& state) {
  const TaskSet set = make_set(7, 0.7, -1.0, 2.0);
  const Analyzer analyzer;
  std::size_t breakpoints = 0;
  for (auto _ : state) {
    const AnalysisReport r =
        analyzer.analyze(set, 2.0, {.speedup = true, .reset = true, .lo = false}).value();
    breakpoints = r.fused_breakpoints;
    benchmark::DoNotOptimize(r.s_min);
  }
  state.counters["breakpoints"] = static_cast<double>(breakpoints);
}
BENCHMARK(BM_FusedAnalyze);

// The full analysis (fused sweep plus the LO-mode test) over task count n on
// harmonic-grid UUniFast sets, the analyze_wide input family of rbs_bench.
// `breakpoints` counts the fused and LO ticks of one call: with incremental
// demand each tick costs O(log n) heap work, not an O(n) re-sum.
void BM_FusedAnalyzeN(benchmark::State& state) {
  const TaskSet set = make_harmonic_set(static_cast<int>(state.range(0)), 5);
  const Analyzer analyzer;
  std::size_t breakpoints = 0;
  for (auto _ : state) {
    const AnalysisReport r = analyzer.analyze(set, 2.0).value();
    breakpoints = r.fused_breakpoints + r.lo_breakpoints;
    benchmark::DoNotOptimize(r.s_min);
  }
  state.counters["breakpoints"] = static_cast<double>(breakpoints);
  state.SetLabel(std::to_string(set.size()) + " tasks");
}
BENCHMARK(BM_FusedAnalyzeN)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// The LO-mode test on constrained deadlines. `breakpoints` is the step points
// one call visits inside the window min(L_a, H).
void BM_LoModeForwardSweep(benchmark::State& state) {
  const TaskSet set = make_set(21, 0.9, 0.4, 2.0);  // constrained deadlines
  std::size_t breakpoints = 0;
  for (auto _ : state) {
    const EdfTestResult r = lo_mode_test(set);
    breakpoints = r.breakpoints_visited;
    benchmark::DoNotOptimize(r.schedulable);
  }
  state.counters["breakpoints"] = static_cast<double>(breakpoints);
}
BENCHMARK(BM_LoModeForwardSweep);

/// One partition probe: a candidate core set and its dwell budget.
struct Probe {
  AnalysisRequest request;
  double max_reset;
};

// The partition probes of a fixed 4-core system: eight 4-task harmonic-grid
// sets at U_LO = 0.35 (the BM_FusedAnalyzeN family, sized like rbs_bench's
// multicore_k1 sets) packed first-fit decreasing at s = 0.7, once without a
// dwell budget and once under 1,000 ticks, in the order partition_first_fit
// tries them. At this speed the HI-mode verdict binds too, so the list
// reaches every stopping rule: the LO-mode window min(L_a, H), both decision
// exits of the Theorem 2 search, and the budget exit of the Corollary 5
// search.
std::vector<Probe> first_fit_probes() {
  std::vector<McTask> tasks;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    for (const McTask& t : make_harmonic_set(4, seed, 0.35)) tasks.push_back(t);
  std::stable_sort(tasks.begin(), tasks.end(), [](const McTask& a, const McTask& b) {
    return a.utilization(Mode::LO) + a.utilization(Mode::HI) >
           b.utilization(Mode::LO) + b.utilization(Mode::HI);
  });
  std::vector<Probe> probes;
  for (const double max_reset : {std::numeric_limits<double>::infinity(), 1000.0}) {
    std::vector<std::vector<McTask>> bins(4);
    for (const McTask& task : tasks) {
      for (std::vector<McTask>& bin : bins) {
        bin.push_back(task);
        Probe probe{{TaskSet(bin), 0.7, {}, {}}, max_reset};
        const AnalysisReport r = Analyzer().fits(probe.request, max_reset).value();
        probes.push_back(std::move(probe));
        if (r.system_schedulable && within_reset_budget(r.delta_r, max_reset)) break;
        bin.pop_back();
      }
    }
  }
  return probes;
}

// The decision probes over the probe list, as partition_first_fit asks them:
// analyze_tasks with a dwell budget, in one AnalysisStorage kept warm across
// the list. `breakpoints` sums the decision reports' fused and LO ticks over
// the list, so the exact gate covers the decision exits and the LO-mode
// window.
void BM_FitsProbe(benchmark::State& state) {
  const std::vector<Probe> probes = first_fit_probes();
  AnalysisStorage storage;
  std::size_t breakpoints = 0;
  for (auto _ : state) {
    breakpoints = 0;
    for (const Probe& probe : probes) {
      const AnalysisReport r =
          analyze_tasks(probe.request.set, probe.request, storage, probe.max_reset).value();
      breakpoints += r.fused_breakpoints + r.lo_breakpoints;
      benchmark::DoNotOptimize(r.system_schedulable);
    }
  }
  state.counters["breakpoints"] = static_cast<double>(breakpoints);
  state.SetLabel(std::to_string(probes.size()) + " probes");
}
BENCHMARK(BM_FitsProbe);

// The multicore pipeline of rbs_bench's multicore_k1 items on a fixed system:
// one 6-task harmonic-grid set at U_LO = 0.35 per core, packed first-fit
// decreasing at s = 2, then analyze_resilience over every single-core fault
// (k = 1). `analyzer_calls` and `scenarios` are exact work counters.
void BM_PartitionResilience(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  std::vector<McTask> tasks;
  for (std::size_t c = 0; c < cores; ++c)
    for (const McTask& t : make_harmonic_set(6, 90 + c, 0.35)) tasks.push_back(t);
  multi::MultiRequest request;
  request.set = TaskSet(std::move(tasks));
  request.budgets.assign(cores, CoreBudget{});
  request.tolerance = 1;
  std::size_t analyzer_calls = 0;
  std::size_t scenarios = 0;
  for (auto _ : state) {
    const PartitionResult partition = partition_first_fit(request.set, cores);
    if (!partition.feasible) {
      state.SkipWithError("the benchmark system does not partition");
      return;
    }
    request.assignment = partition.assignment;
    const multi::MultiReport report = multi::analyze_resilience(request).value();
    analyzer_calls = report.analyzer_calls;
    scenarios = report.scenarios_checked;
    benchmark::DoNotOptimize(report.tolerant);
  }
  state.counters["analyzer_calls"] = static_cast<double>(analyzer_calls);
  state.counters["scenarios"] = static_cast<double>(scenarios);
  state.SetLabel(std::to_string(request.set.size()) + " tasks");
}
BENCHMARK(BM_PartitionResilience)->Arg(2)->Arg(4)->Arg(8);

void BM_MinXSearch(benchmark::State& state) {
  Rng rng(11);
  GenParams params;
  params.u_bound = 0.7;
  const auto skeleton = generate_task_set(params, rng);
  for (auto _ : state) benchmark::DoNotOptimize(min_x_for_lo(*skeleton).x);
}
BENCHMARK(BM_MinXSearch);

// The same search on a 32-task harmonic-grid UUniFast skeleton, shaped like
// rbs_bench's analyze_wide items: several tasks share each period's ring.
void BM_MinXSearchHarmonic(benchmark::State& state) {
  const ImplicitSet skeleton = make_harmonic_skeleton(static_cast<int>(state.range(0)), 41);
  for (auto _ : state) benchmark::DoNotOptimize(min_x_for_lo(skeleton).x);
  state.SetLabel(std::to_string(skeleton.size()) + " tasks");
}
BENCHMARK(BM_MinXSearchHarmonic)->Arg(32);

void BM_TaskGeneration(benchmark::State& state) {
  Rng rng(13);
  GenParams params;
  params.u_bound = 0.8;
  for (auto _ : state) benchmark::DoNotOptimize(generate_task_set(params, rng));
}
BENCHMARK(BM_TaskGeneration);

// A fresh Simulator per iteration: each run pays validation plus a cold
// kernel (fresh calendar/pool allocations), the one-shot usage pattern.
void BM_SimulatorThroughput(benchmark::State& state) {
  const TaskSet set = make_set(17, 0.6, -1.0, 2.0);
  sim::SimConfig cfg;
  cfg.horizon = 50000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 0.3;
  cfg.release_jitter = 0.1;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    cfg.seed++;
    const sim::SimMetrics r = sim::Simulator().run(set, cfg).value().metrics;
    jobs += r.jobs_released;
    benchmark::DoNotOptimize(r.jobs_completed);
  }
  state.counters["jobs/s"] =
      benchmark::Counter(static_cast<double>(jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput);

// The facade as campaigns use it: one long-lived Simulator, so the
// calendar, job pool and scratch buffers are warm and the steady state is
// allocation-free. Same workload as BM_SimulatorThroughput.
void BM_EventKernelThroughput(benchmark::State& state) {
  const TaskSet set = make_set(17, 0.6, -1.0, 2.0);
  sim::SimConfig cfg;
  cfg.horizon = 50000.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 0.3;
  cfg.release_jitter = 0.1;
  sim::Simulator simulator;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    cfg.seed++;
    const sim::SimReport r = simulator.run(set, cfg).value();
    jobs += r.metrics.jobs_released;
    benchmark::DoNotOptimize(r.metrics.jobs_completed);
  }
  state.counters["jobs/s"] =
      benchmark::Counter(static_cast<double>(jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventKernelThroughput);

/// The flags campaign mode reads besides those of bench::open_csv,
/// bench::parse_campaign and bench::parse_checkpoint.
constexpr std::string_view kCampaignModeFlags[] = {"smoke", "campaign", "sets", "json"};

/// True for argv entries that belong to campaign mode, not google-benchmark.
bool is_campaign_flag(const char* arg, bool* eats_value) {
  std::string_view flag = arg;
  if (flag.substr(0, 2) != "--") return false;
  flag.remove_prefix(2);
  const std::size_t eq = flag.find('=');
  // `--jobs 8` form: the next argv entry is the value of every flag but the
  // booleans.
  *eats_value = eq == std::string_view::npos && flag != "smoke" && flag != "campaign" &&
                flag != "resume";
  flag = flag.substr(0, eq);
  const auto in = [flag](std::span<const std::string_view> flags) {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  };
  return in(kCampaignModeFlags) || in(bench::kCampaignFlags) || in(bench::kCheckpointFlags) ||
         in(bench::kCsvFlags);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("smoke") || args.has("campaign")) {
    bench::check_flags(args, {},
                       {kCampaignModeFlags, bench::kCampaignFlags, bench::kCheckpointFlags,
                        bench::kCsvFlags});
    return run_campaign_mode(args);
  }

  // Plain benchmark run: drop any campaign flags so google-benchmark's own
  // parser does not reject them.
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    bool eats_value = false;
    if (i > 0 && is_campaign_flag(argv[i], &eats_value)) {
      if (eats_value && i + 1 < argc && argv[i + 1][0] != '-') ++i;
      continue;
    }
    filtered.push_back(argv[i]);
  }
  // --json PATH is shorthand for google-benchmark's JSON file output; the
  // strings must outlive Initialize(), which keeps pointers into argv.
  static std::string json_out, json_fmt = "--benchmark_out_format=json";
  if (const std::string json_path = args.get_string("json", ""); !json_path.empty()) {
    json_out = "--benchmark_out=" + json_path;
    filtered.push_back(json_out.data());
    filtered.push_back(json_fmt.data());
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  // What google-benchmark left is no flag of either mode.
  bench::check_flags(CliArgs(filtered_argc, filtered.data()), {});
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) return 1;
  benchmark::AddCustomContext("rbs_build_type", RBS_PERF_BUILD_TYPE);
  benchmark::AddCustomContext("rbs_cxx_flags", RBS_PERF_CXX_FLAGS);
  benchmark::AddCustomContext("rbs_compiler", RBS_PERF_COMPILER);
  benchmark::AddCustomContext("rbs_git", RBS_PERF_GIT);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
