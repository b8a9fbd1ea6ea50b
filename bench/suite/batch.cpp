// The four batch workloads of rbs_bench. Each item runs one pipeline through
// the public facades; items are claimed in index order by a
// campaign::Supervisor on W workers until the measured window closes.
//
//   campaign_paper  paper generator (Fig. 6, u_bound 0.5..0.9) -> exact min-x
//                   -> fused analyze at s = 2 -> encode
//   analyze_wide    UUniFast n in {16, 32, 64}, U_LO = 0.6, harmonic period
//                   grid -> exact min-x -> fused analyze -> encode
//   sim_validate    paper set -> analyze -> Simulator::run at max(1, s_min)
//   multicore_k1    M in {2, 4, 8} cores at 0.35 each -> partition_first_fit
//                   -> analyze_resilience (k = 1)
//
// The first `check_items` items of every run are always processed, even
// past the window: their payloads are digested (compared with digests.txt
// for the recorded seeds), their work counters are the exact per-layer
// counts, and after timing they are recomputed serially on the main thread
// and must match byte for byte.
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "campaign/supervisor.hpp"
#include "core/analysis.hpp"
#include "core/closed_form.hpp"
#include "core/partition.hpp"
#include "core/tuning.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "multi/resilience.hpp"
#include "sim/simulate.hpp"
#include "suite.hpp"
#include "support/tolerance.hpp"

namespace rbs::suite {
namespace {

/// Fig. 6's utilization sweep; item i uses kPaperBounds[i % 5].
constexpr std::array<double, 5> kPaperBounds = {0.5, 0.6, 0.7, 0.8, 0.9};
/// Harmonic period grid of analyze_wide and multicore_k1, in ticks
/// (hyperperiod 10^4).
constexpr std::array<Ticks, 8> kHarmonicPeriods = {200,  250,  500,  1000,
                                                   2000, 2500, 5000, 10000};
constexpr std::array<int, 3> kWideSizes = {16, 32, 64};
constexpr std::array<std::size_t, 3> kCoreCounts = {2, 4, 8};
constexpr double kSimHorizon = 1e7;
/// Warm-up items draw from a stream of their own that does not depend on
/// the run seed: they never pre-run a measured item, and set-up does the same
/// work in every run.
constexpr std::uint64_t kWarmStream = 0x5741524DULL;
/// Items whose spans go to the Chrome trace file (all items are aggregated).
constexpr std::size_t kTraceFileItems = 2000;
constexpr int kSetupRepeats = 5;

// ---------------------------------------------------------------------------
// Per-item work counters
// ---------------------------------------------------------------------------

enum class Counter : std::uint8_t {
  kGenCalls,
  kGenAttempts,
  kGenSets,
  kMinXCalls,
  kMinXInfeasible,
  kAnalyzeCalls,
  kFusedBp,
  kLoBp,
  kSpeedupBp,
  kResetBp,
  kInexact,
  kPartitionCalls,
  kPartitionInfeasible,
  kResilienceCalls,
  kScenarios,
  kAnalyzerCalls,
  kTolerant,
  kSimRuns,
  kJobsReleased,
  kEventsProcessed,
  kCalendarPushes,
  kStaleDropped,
  kEdfRescans,
  kModeSwitches,
  kHiMisses,
  kCount
};
constexpr std::size_t kCounters = static_cast<std::size_t>(Counter::kCount);
using Counters = std::array<std::uint64_t, kCounters>;

/// Per-layer metric name of each counter (nullptr: used only in ratios).
constexpr std::array<const char*, kCounters> kCounterMetrics = {
    "gen.calls",
    "gen.attempts",
    nullptr,
    "min_x.calls",
    "min_x.infeasible",
    "analyze.calls",
    "analyze.fused_breakpoints",
    "analyze.lo_breakpoints",
    "analyze.speedup_breakpoints",
    "analyze.reset_breakpoints",
    "analyze.inexact",
    "partition.calls",
    "partition.infeasible",
    "resilience.calls",
    "resilience.scenarios",
    "resilience.analyzer_calls",
    "resilience.tolerant",
    "sim.runs",
    "sim.jobs_released",
    "sim.events_processed",
    "sim.calendar_pushes",
    "sim.stale_events_dropped",
    "sim.edf_rescans",
    "sim.mode_switches",
    "sim.hi_misses"};

/// Everything one item attempt produces besides its payload.
struct ItemCtx {
  std::uint64_t index = 0;
  std::uint64_t rng_seed = 0;
  ItemTrace* trace = nullptr;
  Counters counters{};
  std::string problem;  ///< first failed check; empty when every check passed

  void add(Counter c, std::uint64_t n = 1) { counters[static_cast<std::size_t>(c)] += n; }
  void fail(const std::string& what) {
    if (problem.empty()) problem = what;
  }
};

using ItemFn = std::string (*)(ItemCtx&);

struct BatchSpec {
  const char* name;
  std::uint64_t stream;     ///< input stream tag under the run seed
  std::size_t check_items;  ///< always processed, digested and rechecked
  std::size_t round_items;  ///< items per Supervisor::run (>= check_items)
  std::size_t warm_items;   ///< set-up warm-up items
  ItemFn item;
};

const Analyzer& shared_analyzer() {
  static const Analyzer analyzer;
  return analyzer;
}

// ---------------------------------------------------------------------------
// Pipeline steps shared by the workloads
// ---------------------------------------------------------------------------

void append(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, ",%.17g", value);
  out += buffer;
}

void append(std::string& out, std::uint64_t value) {
  out += ',';
  out += std::to_string(value);
}

std::optional<ImplicitSet> paper_skeleton(ItemCtx& ctx, Rng& rng, double u_bound) {
  const Span span(ctx.trace, Layer::kGen);
  GenParams params;
  params.u_bound = u_bound;
  ctx.add(Counter::kGenCalls);
  for (int attempt = 0; attempt < 200; ++attempt) {
    ctx.add(Counter::kGenAttempts);
    if (auto skeleton = generate_task_set(params, rng)) {
      ctx.add(Counter::kGenSets);
      return skeleton;
    }
  }
  return std::nullopt;
}

/// Exact minimal x (min_x_for_lo), materialised at (x, y = 2).
std::optional<TaskSet> prepare(ItemCtx& ctx, const ImplicitSet& skeleton, double* x) {
  const Span span(ctx.trace, Layer::kMinX);
  ctx.add(Counter::kMinXCalls);
  const MinXResult mx = min_x_for_lo(skeleton);
  if (!mx.feasible) {
    ctx.add(Counter::kMinXInfeasible);
    return std::nullopt;
  }
  *x = mx.x;
  return skeleton.materialize(mx.x, kDegradation);
}

/// Invariants every report must satisfy, from the facade's contract and the
/// paper's closed forms (Lemma 6 bounds s_min from above, Lemma 7 bounds
/// Delta_R). Verdicts are judged with the project tolerance, so a boundary
/// case may go either way.
void check_report(ItemCtx& ctx, const TaskSet& set, const AnalysisReport& r) {
  if (r.system_schedulable != (r.lo_schedulable && r.hi_schedulable))
    ctx.fail("system verdict is not lo && hi");
  if (definitely_lt(r.s_min, r.speed, kSpeedTol) && !r.hi_schedulable)
    ctx.fail("s_min below s but HI verdict false");
  if (definitely_gt(r.s_min, r.speed, kSpeedTol) && r.hi_schedulable)
    ctx.fail("s_min above s but HI verdict true");
  if (!std::isfinite(r.s_min)) return;
  if (definitely_lt(r.s_min + r.s_min_error_bound, r.u_hi, kSpeedTol))
    ctx.fail("s_min below U_HI");
  if (definitely_gt(r.s_min, lemma6_speedup_bound(set), kSpeedTol))
    ctx.fail("s_min above the Lemma 6 bound");
  const double reset_bound = lemma7_reset_bound(set, r.speed);
  if (std::isfinite(r.delta_r) && std::isfinite(reset_bound) &&
      definitely_gt(r.delta_r, reset_bound, kSpeedTol))
    ctx.fail("Delta_R above the Lemma 7 bound");
  if (r.delta_r_exact && definitely_gt(r.speed, r.u_hi, kSpeedTol) && !std::isfinite(r.delta_r))
    ctx.fail("Delta_R infinite although s > U_HI");
}

std::optional<AnalysisReport> analyze_checked(ItemCtx& ctx, const TaskSet& set) {
  std::optional<AnalysisReport> report;
  {
    const Span span(ctx.trace, Layer::kAnalyze);
    Expected<AnalysisReport> result = shared_analyzer().analyze(set, kSpeed);
    if (!result) {
      ctx.fail("analyze failed: " + result.status().message());
      return std::nullopt;
    }
    report = std::move(result).value();
  }
  ctx.add(Counter::kAnalyzeCalls);
  ctx.add(Counter::kFusedBp, report->fused_breakpoints);
  ctx.add(Counter::kLoBp, report->lo_breakpoints);
  ctx.add(Counter::kSpeedupBp, report->speedup_breakpoints);
  ctx.add(Counter::kResetBp, report->reset_breakpoints);
  if (!report->s_min_exact || !report->delta_r_exact) ctx.add(Counter::kInexact);
  check_report(ctx, set, *report);
  return report;
}

/// The report's results in %.17g; work counters are left out so a faster
/// sweep that visits fewer breakpoints keeps the digest.
void append_report(std::string& out, const AnalysisReport& r) {
  append(out, r.s_min);
  append(out, std::uint64_t{r.s_min_exact});
  append(out, r.s_min_error_bound);
  append(out, static_cast<std::uint64_t>(r.s_min_argmax));
  append(out, r.delta_r);
  append(out, std::uint64_t{r.delta_r_exact});
  append(out, std::uint64_t{r.lo_schedulable});
  append(out, std::uint64_t{r.hi_schedulable});
  append(out, std::uint64_t{r.system_schedulable});
  append(out, r.u_lo);
  append(out, r.u_hi);
}

/// Generate -> min-x -> analyze -> encode, the campaign item both analysis
/// workloads share.
std::string analysis_item(ItemCtx& ctx, const std::optional<ImplicitSet>& skeleton) {
  std::string out = std::to_string(ctx.index);
  if (!skeleton) return out + ",nogen";
  double x = 1.0;
  const std::optional<TaskSet> set = prepare(ctx, *skeleton, &x);
  if (!set) return out + ",lo-infeasible";
  const std::optional<AnalysisReport> report = analyze_checked(ctx, *set);
  if (!report) return out + ",error";
  const Span span(ctx.trace, Layer::kEncode);
  append(out, static_cast<std::uint64_t>(set->size()));
  append(out, x);
  append_report(out, *report);
  return out;
}

// ---------------------------------------------------------------------------
// Workload items
// ---------------------------------------------------------------------------

std::string campaign_paper_item(ItemCtx& ctx) {
  Rng rng(ctx.rng_seed);
  const std::optional<ImplicitSet> skeleton =
      paper_skeleton(ctx, rng, kPaperBounds[ctx.index % kPaperBounds.size()]);
  return analysis_item(ctx, skeleton);
}

/// `drawn` with every period re-drawn from the harmonic grid, keeping each
/// task's utilization and C(HI)/C(LO) ratio up to rounding C(LO) to a
/// multiple of `quantum` ticks. The hyperperiod stays 10^4 ticks, so the
/// cost of an analysis depends on the task count, not on how coprime the
/// periods happen to be.
ImplicitSet snap_to_grid(const ImplicitSet& drawn, Rng& rng, Ticks quantum) {
  std::vector<ImplicitTask> tasks;
  tasks.reserve(drawn.size());
  for (const ImplicitTask& t : drawn.tasks()) {
    ImplicitTask snapped = t;
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kHarmonicPeriods.size()) - 1));
    snapped.period = kHarmonicPeriods[pick];
    const double quanta = t.u_lo() * static_cast<double>(snapped.period / quantum);
    snapped.c_lo =
        quantum * std::clamp<Ticks>(std::llround(quanta), 1, snapped.period / quantum);
    const double gamma = static_cast<double>(t.c_hi) / static_cast<double>(t.c_lo);
    snapped.c_hi =
        t.criticality == Criticality::HI
            ? std::clamp<Ticks>(std::llround(gamma * static_cast<double>(snapped.c_lo)),
                                snapped.c_lo, snapped.period)
            : snapped.c_lo;
    tasks.push_back(std::move(snapped));
  }
  return ImplicitSet(std::move(tasks));
}

std::string analyze_wide_item(ItemCtx& ctx) {
  Rng rng(ctx.rng_seed);
  std::optional<ImplicitSet> skeleton;
  {
    const Span span(ctx.trace, Layer::kGen);
    UUniFastParams params;
    params.n_tasks = kWideSizes[ctx.index % kWideSizes.size()];
    params.u_total_lo = 0.6;
    skeleton = snap_to_grid(generate_uunifast_set(params, rng), rng, 1);
    ctx.add(Counter::kGenCalls);
    ctx.add(Counter::kGenAttempts);
    ctx.add(Counter::kGenSets);
  }
  return analysis_item(ctx, skeleton);
}

std::string sim_validate_item(ItemCtx& ctx) {
  // One Simulator per worker thread: its calendar and pools stay warm.
  thread_local sim::Simulator simulator;
  Rng rng(ctx.rng_seed);
  std::string out = std::to_string(ctx.index);
  const std::optional<ImplicitSet> skeleton =
      paper_skeleton(ctx, rng, kPaperBounds[ctx.index % kPaperBounds.size()]);
  if (!skeleton) return out + ",nogen";
  double x = 1.0;
  const std::optional<TaskSet> set = prepare(ctx, *skeleton, &x);
  if (!set) return out + ",lo-infeasible";
  const std::optional<AnalysisReport> report = analyze_checked(ctx, *set);
  if (!report) return out + ",error";
  append(out, report->s_min);
  append(out, std::uint64_t{report->lo_schedulable});
  // Theorem 2 promises no deadline miss at s >= s_min only when LO mode is
  // schedulable; the other sets are recorded without a simulation.
  if (!report->lo_schedulable || !std::isfinite(report->s_min)) return out + ",unsimulated";

  sim::SimConfig config;
  config.horizon = kSimHorizon;
  config.hi_speed = std::max(1.0, report->s_min + kSpeedTol.absolute);
  config.demand.overrun_probability = 0.3;
  config.release_jitter = 0.1;
  config.seed = splitmix64(ctx.rng_seed);
  std::optional<sim::SimReport> run;
  {
    const Span span(ctx.trace, Layer::kSim);
    Expected<sim::SimReport> result = simulator.run(*set, config);
    if (!result) {
      ctx.fail("simulate failed: " + result.status().message());
      return out + ",error";
    }
    run = std::move(result).value();
  }
  const auto& m = run->metrics;
  std::uint64_t hi_misses = 0;
  for (const auto& miss : m.misses)
    if ((*set)[miss.task_index].is_hi()) ++hi_misses;
  ctx.add(Counter::kSimRuns);
  ctx.add(Counter::kJobsReleased, m.jobs_released);
  ctx.add(Counter::kEventsProcessed, run->counters.events_processed);
  ctx.add(Counter::kCalendarPushes, run->counters.calendar_pushes);
  ctx.add(Counter::kStaleDropped, run->counters.stale_events_dropped);
  ctx.add(Counter::kEdfRescans, run->counters.edf_rescans);
  ctx.add(Counter::kModeSwitches, m.mode_switches);
  ctx.add(Counter::kHiMisses, hi_misses);
  if (hi_misses != 0) ctx.fail("HI deadline miss at s = max(1, s_min)");
  if (!run->completed) ctx.fail("simulation ended before its horizon");

  const Span span(ctx.trace, Layer::kEncode);
  append(out, config.hi_speed);
  append(out, m.jobs_released);
  append(out, m.jobs_completed);
  append(out, m.jobs_abandoned);
  append(out, m.preemptions);
  append(out, m.mode_switches);
  append(out, static_cast<std::uint64_t>(m.misses.size()));
  append(out, m.busy_time);
  append(out, m.max_hi_dwell());
  append(out, static_cast<std::uint64_t>(m.hi_dwell_times.size()));
  append(out, std::uint64_t{m.ended_in_hi_mode});
  return out;
}

std::string multicore_k1_item(ItemCtx& ctx) {
  Rng rng(ctx.rng_seed);
  const std::size_t cores = kCoreCounts[ctx.index % kCoreCounts.size()];
  std::string out = std::to_string(ctx.index);
  append(out, static_cast<std::uint64_t>(cores));

  // The system: one independently generated 0.35-utilization set per core,
  // on the harmonic period grid with C(LO) a multiple of 3 ticks. Then
  // 10^4 * U_LO of any bin is a multiple of 3, so no partition probe lands
  // on U_LO == 1 exactly, where the LO-mode test walks its whole 2 * 10^7
  // breakpoint budget (about 1 s). With free periods, or on the grid with
  // 1-tick WCETs, about one item in a hundred hits that and no 10 s window
  // holds enough of them to average out.
  std::vector<McTask> tasks;
  for (std::size_t c = 0; c < cores; ++c) {
    std::optional<ImplicitSet> skeleton = paper_skeleton(ctx, rng, 0.35);
    if (!skeleton) return out + ",nogen";
    skeleton = snap_to_grid(*skeleton, rng, 3);
    double x = 1.0;
    const std::optional<TaskSet> set = prepare(ctx, *skeleton, &x);
    if (!set) return out + ",lo-infeasible";
    for (const McTask& t : *set) tasks.push_back(t);
  }
  Expected<TaskSet> created = TaskSet::create(std::move(tasks));
  if (!created) {
    ctx.fail("system set rejected: " + created.status().message());
    return out + ",error";
  }
  const TaskSet system = std::move(created).value();
  append(out, static_cast<std::uint64_t>(system.size()));

  PartitionResult partition;
  {
    const Span span(ctx.trace, Layer::kPartition);
    PartitionOptions options;
    options.hi_speedup = kSpeed;
    partition = partition_first_fit(system, cores, options);
  }
  ctx.add(Counter::kPartitionCalls);
  append(out, std::uint64_t{partition.feasible});
  if (!partition.feasible) {
    ctx.add(Counter::kPartitionInfeasible);
    append(out, static_cast<std::uint64_t>(partition.rejected_task.value_or(system.size())));
    return out;
  }
  std::vector<int> placed(system.size(), 0);
  for (std::size_t c = 0; c < cores; ++c) {
    for (const std::size_t task : partition.assignment[c]) ++placed[task];
    if (definitely_gt(partition.core_s_min[c], kSpeed, kSpeedTol))
      ctx.fail("partitioned core exceeds its speedup budget");
    append(out, static_cast<std::uint64_t>(partition.assignment[c].size()));
    append(out, partition.core_s_min[c]);
    append(out, partition.core_delta_r[c]);
  }
  for (const int count : placed)
    if (count != 1) ctx.fail("partition does not place every task exactly once");

  std::optional<multi::MultiReport> verdict;
  {
    const Span span(ctx.trace, Layer::kResilience);
    multi::MultiRequest request;
    request.set = system;
    request.assignment = partition.assignment;
    request.budgets.assign(cores, CoreBudget{kSpeed, std::numeric_limits<double>::infinity()});
    request.tolerance = 1;
    Expected<multi::MultiReport> result = multi::analyze_resilience(request);
    if (!result) {
      ctx.fail("analyze_resilience failed: " + result.status().message());
      return out + ",error";
    }
    verdict = std::move(result).value();
  }
  ctx.add(Counter::kResilienceCalls);
  ctx.add(Counter::kScenarios, verdict->scenarios_checked);
  ctx.add(Counter::kAnalyzerCalls, verdict->analyzer_calls);
  if (verdict->tolerant) ctx.add(Counter::kTolerant);
  if (verdict->tolerant && (!verdict->nominal_feasible || verdict->scenarios_infeasible != 0))
    ctx.fail("tolerant verdict with an infeasible scenario");
  if (verdict->scenarios.size() != verdict->scenarios_checked)
    ctx.fail("scenario count disagrees with the scenario list");

  const Span span(ctx.trace, Layer::kEncode);
  std::uint64_t migrations = 0, degraded = 0, lost = 0, feasible = 0;
  for (const multi::FailureScenario& scenario : verdict->scenarios) {
    migrations += scenario.migrations.size();
    degraded += scenario.degraded_lo.size();
    lost += scenario.lost_lo.size();
    feasible += scenario.feasible ? 1 : 0;
  }
  append(out, std::uint64_t{verdict->nominal_feasible});
  append(out, std::uint64_t{verdict->tolerant});
  append(out, static_cast<std::uint64_t>(verdict->scenarios_checked));
  append(out, feasible);
  append(out, migrations);
  append(out, degraded);
  append(out, lost);
  return out;
}

// Sizes are set so a 10 s run on a 4-vCPU host processes each workload's
// check prefix in well under a second of its window.
constexpr std::array<BatchSpec, 4> kSpecs = {{
    {"campaign_paper", 1, 1000, 32768, 1000, campaign_paper_item},
    {"analyze_wide", 2, 240, 16384, 600, analyze_wide_item},
    {"sim_validate", 3, 120, 8192, 150, sim_validate_item},
    {"multicore_k1", 4, 90, 8192, 300, multicore_k1_item},
}};

const BatchSpec* find_spec(const std::string& name) {
  for (const BatchSpec& spec : kSpecs)
    if (name == spec.name) return &spec;
  return nullptr;
}

/// Throughput as the median over the window's whole 0.5 s slices: a burst
/// of interference from other tenants of the host costs the slices it
/// covers, not the run. A slice's rate is (items - 1) over the span from its
/// first to its last item end. Windows shorter than three slices, or with
/// slices too sparse to rate, fall back to items over the window.
double median_slice_rate(const std::vector<std::int64_t>& end_offsets, double window_ns) {
  constexpr std::int64_t kSliceNs = 500'000'000;
  const double overall = share(static_cast<double>(end_offsets.size()), window_ns / 1e9);
  const auto slices = static_cast<std::size_t>(window_ns / static_cast<double>(kSliceNs));
  if (slices < 3) return overall;
  struct Slice {
    double items = 0.0;
    std::int64_t first = std::numeric_limits<std::int64_t>::max();
    std::int64_t last = 0;
  };
  std::vector<Slice> bins(slices);
  for (const std::int64_t t : end_offsets) {
    const auto slice = static_cast<std::size_t>(t / kSliceNs);
    if (slice >= slices) continue;
    bins[slice].items += 1.0;
    bins[slice].first = std::min(bins[slice].first, t);
    bins[slice].last = std::max(bins[slice].last, t);
  }
  std::vector<double> rates;
  for (const Slice& bin : bins) {
    if (bin.items < 3.0) return overall;
    rates.push_back((bin.items - 1.0) * 1e9 / static_cast<double>(bin.last - bin.first));
  }
  return median_of(std::move(rates));
}

std::uint32_t worker_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

/// One claimed item's bookkeeping, written only by the worker running it.
struct Slot {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool skipped = false;
  std::uint32_t tid = 0;
  std::string problem;
};

struct LayerTotals {
  std::array<double, kLayers> self_ns{};
  std::array<double, kLayers> check_self_ns{};  ///< over the check prefix only
  double spans = 0.0;
};

}  // namespace

bool is_batch_workload(const std::string& name) { return find_spec(name) != nullptr; }

RunResult run_batch(const RunOptions& options) {
  const BatchSpec& spec = *find_spec(options.workload);
  RunResult result;
  campaign::SupervisorOptions supervisor_options;
  supervisor_options.campaign.jobs = options.workers;
  supervisor_options.max_attempts = 1;

  // ---- set-up: worker start plus a warm-up batch, repeated ----------------
  std::vector<double> setups;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const std::int64_t start = mono_ns();
    const campaign::Supervisor warm(supervisor_options);
    const campaign::CampaignReport report = warm.run(
        options.smoke ? 1 : spec.warm_items,
        [&](std::size_t i, Rng&, const campaign::CancelToken&) {
          ItemCtx ctx;
          ctx.index = i;
          ctx.rng_seed = item_seed(0, spec.stream ^ kWarmStream, i);
          return spec.item(ctx);
        });
    if (!report.all_completed()) result.problem("warm-up item failed");
    setups.push_back(static_cast<double>(mono_ns() - start) / 1e9);
  }

  // ---- measured window -----------------------------------------------------
  const std::size_t check_items = spec.check_items;
  std::vector<std::string> check_payloads(check_items);
  std::vector<Counters> check_counters(check_items);
  std::vector<double> latencies_ms;
  std::vector<std::int64_t> end_times;
  std::vector<TraceEvent> events;
  LayerTotals totals;
  double busy_ns = 0.0, tail_ns = 0.0;
  std::uint64_t processed = 0, retried = 0, quarantined = 0;

  const std::int64_t window_start = mono_ns();
  const std::int64_t deadline =
      window_start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t window_end = window_start;
  const campaign::Supervisor supervisor(supervisor_options);
  for (std::size_t base = 0;; base += spec.round_items) {
    std::vector<Slot> slots(spec.round_items);
    std::vector<ItemTrace> traces(options.trace ? spec.round_items : 0);
    const campaign::CampaignReport report = supervisor.run(
        spec.round_items, [&](std::size_t i, Rng&, const campaign::CancelToken&) {
          const std::size_t g = base + i;
          Slot& slot = slots[i];
          if (g >= check_items && mono_ns() >= deadline) {
            slot.skipped = true;
            return std::string();
          }
          ItemCtx ctx;
          ctx.index = g;
          ctx.rng_seed = item_seed(options.seed, spec.stream, g);
          ctx.trace = options.trace ? &traces[i] : nullptr;
          slot.tid = worker_tid();
          slot.start_ns = mono_ns();
          if (ctx.trace != nullptr) ctx.trace->open_span(Layer::kItem);
          std::string payload = spec.item(ctx);
          if (ctx.trace != nullptr) ctx.trace->close_span();
          slot.end_ns = mono_ns();
          slot.problem = std::move(ctx.problem);
          if (g < check_items) check_counters[g] = ctx.counters;
          return payload;
        });
    retried += report.retried;

    std::int64_t last_start = 0, round_end = 0;
    for (std::size_t i = 0; i < spec.round_items; ++i) {
      const std::size_t g = base + i;
      const campaign::ItemOutcome& outcome = report.items[i];
      if (outcome.state != campaign::ItemOutcome::State::kOk) {
        ++quarantined;
        result.problem("item " + std::to_string(g) + " failed: " + outcome.payload);
        continue;
      }
      const Slot& slot = slots[i];
      if (slot.skipped) continue;
      ++processed;
      if (!slot.problem.empty())
        result.problem("item " + std::to_string(g) + ": " + slot.problem);
      if (g < check_items) check_payloads[g] = outcome.payload;
      const auto duration = static_cast<double>(slot.end_ns - slot.start_ns);
      latencies_ms.push_back(duration / 1e6);
      end_times.push_back(slot.end_ns - window_start);
      busy_ns += duration;
      last_start = std::max(last_start, slot.start_ns);
      round_end = std::max(round_end, slot.end_ns);
      if (!options.trace) continue;
      const ItemTrace& trace = traces[i];
      for (std::size_t l = 0; l < kLayers; ++l) {
        totals.self_ns[l] += static_cast<double>(trace.self_ns[l]);
        if (g < check_items) totals.check_self_ns[l] += static_cast<double>(trace.self_ns[l]);
      }
      totals.spans += trace.span_count;
      if (g < kTraceFileItems)
        for (std::uint32_t s = 0; s < trace.stored; ++s)
          events.push_back({kLayerNames[static_cast<std::size_t>(trace.spans[s].layer)],
                            trace.spans[s].start_ns, trace.spans[s].end_ns, slot.tid, g});
    }
    // Tail: from the first item end after the last claim until the round's
    // last item end, fewer than W items are in flight.
    std::int64_t tail_start = round_end;
    for (std::size_t i = 0; i < spec.round_items; ++i) {
      const Slot& slot = slots[i];
      if (!slot.skipped && slot.end_ns >= last_start && slot.end_ns > 0)
        tail_start = std::min(tail_start, slot.end_ns);
    }
    tail_ns += static_cast<double>(round_end - tail_start);
    window_end = std::max(window_end, round_end);
    if (mono_ns() >= deadline) break;
  }
  const double window_ns = static_cast<double>(window_end - window_start);

  // ---- correctness: serial recompute, digest --------------------------------
  Fnv1a digest;
  Counters exact{};
  for (std::size_t g = 0; g < check_items; ++g) {
    ItemCtx ctx;
    ctx.index = g;
    ctx.rng_seed = item_seed(options.seed, spec.stream, g);
    const std::string payload = spec.item(ctx);
    if (payload != check_payloads[g] || ctx.counters != check_counters[g])
      result.problem("item " + std::to_string(g) + ": serial recompute differs from the run");
    digest.add(check_payloads[g]);
    digest.add("\n");
    for (std::size_t c = 0; c < kCounters; ++c) exact[c] += check_counters[g][c];
  }
  result.notes["digest"] = digest.hex();
  result.notes["check_items"] = std::to_string(check_items);
  if (options.digests != nullptr) {
    const std::string key = spec.name + std::string("/") + std::to_string(options.seed);
    const auto recorded = options.digests->find(key);
    if (recorded != options.digests->end() && recorded->second != digest.hex())
      result.problem("digest " + digest.hex() + " differs from the recorded " +
                     recorded->second + " for " + key);
  }
  result.attempted = processed + quarantined;

  // ---- metrics ---------------------------------------------------------------
  const double seconds = window_ns / 1e9;
  result.set("setup_s", median_of(setups), "s");
  result.set("items_per_s", median_slice_rate(end_times, window_ns), "items/s");
  result.notes["items_per_s_overall"] =
      std::to_string(seconds > 0.0 ? static_cast<double>(processed) / seconds : 0.0);
  result.notes["latency_samples"] = std::to_string(latencies_ms.size());
  result.set("p50_ms", percentile(latencies_ms, 0.5), "ms");
  result.set("item.p90_ms", percentile(latencies_ms, 0.9), "ms");
  result.set("item.p99_ms", percentile(latencies_ms, 0.99), "ms");

  for (std::size_t c = 0; c < kCounters; ++c)
    if (kCounterMetrics[c] != nullptr)
      result.set(kCounterMetrics[c], static_cast<double>(exact[c]), "count");
  const auto count_of = [&exact](Counter c) {
    return static_cast<double>(exact[static_cast<std::size_t>(c)]);
  };
  result.set("gen.yield", share(count_of(Counter::kGenSets), count_of(Counter::kGenAttempts)),
             "ratio");
  result.set("campaign.items", static_cast<double>(processed), "count");
  result.set("campaign.worker_util", share(busy_ns, window_ns * options.workers), "ratio");
  result.set("campaign.tail_share", share(tail_ns, window_ns), "ratio");
  result.set("campaign.retries", static_cast<double>(retried), "count");
  result.set("campaign.quarantined", static_cast<double>(quarantined), "count");

  if (options.trace) {
    for (std::size_t l = 1; l < kLayers; ++l)
      result.set(std::string(kLayerNames[l]) + ".self_share",
                 share(totals.self_ns[l], busy_ns), "ratio");
    result.set("trace.unattributed_share", share(totals.self_ns[0], busy_ns), "ratio");
    result.set("trace.spans", totals.spans, "count");
    result.set("trace.overhead_frac", share(totals.spans * span_cost_ns(), busy_ns), "ratio");
    const auto check_us = [&totals](Layer l) {
      return totals.check_self_ns[static_cast<std::size_t>(l)] / 1e3;
    };
    result.set("analyze.bp_per_us",
               share(count_of(Counter::kFusedBp) + count_of(Counter::kLoBp),
                     check_us(Layer::kAnalyze)),
               "bp/us");
    result.set("sim.events_per_us",
               share(count_of(Counter::kEventsProcessed), check_us(Layer::kSim)), "1/us");
    result.set("resilience.calls_per_ms",
               share(count_of(Counter::kAnalyzerCalls), check_us(Layer::kResilience) / 1e3),
               "1/ms");
    if (!options.trace_dir.empty()) {
      const std::string path = options.trace_dir + "/" + spec.name + "-seed" +
                               std::to_string(options.seed) + ".trace.json";
      if (write_chrome_trace(path, events, window_start)) result.notes["trace_file"] = path;
    }
  }
  return result;
}

}  // namespace rbs::suite
