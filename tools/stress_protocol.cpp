// Randomized stress harness for the runtime protocol under boost faults.
//
// Sweeps generated task sets x fault plans, runs the discrete-event
// simulator, and checks every recorded trace with sim/watchdog.hpp against
// the guarantee core/resilience.hpp derives for the speed each scenario
// actually achieves:
//
//   * no faults, hi_speed >= s_min      -> zero violations, dwell <= Delta_R;
//   * boost denied/partial/throttled    -> HI-mode misses licensed iff the
//     achieved speed falls below s_min of the set as simulated;
//   * boost denied + analysis fallback  -> the reduced set re-establishes
//     the guarantee: zero violations again;
//   * delayed overrun detection         -> LO-mode misses licensed (the
//     LO-mode test is void while overruns run undetected).
//
// Every random draw descends from --seed, and faults are pre-resolved into
// scripted episodes, so a run replays bit-for-bit. On a violation the
// harness re-runs the trace via SimConfig::scripted_arrivals and greedily
// shrinks the job list to a minimal reproducer before reporting it.
//
// Fault tolerance: `--checkpoint <path>` journals one record per finished
// set (campaign/journal.hpp), `--resume` skips journaled sets while keeping
// the RNG sequence aligned (their fork_seed draws are replayed), and
// `--max-seconds S` caps the wall-clock budget -- when it runs out, or on
// SIGINT/SIGTERM, the sweep checkpoints and exits with the resumable code.
//
// Exit codes: 0 = clean sweep, 1 = unlicensed violation, 2 = bad usage,
// 75 = interrupted but resumable (campaign/supervisor.hpp kExitResumable).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/supervisor.hpp"
#include "core/analysis.hpp"
#include "core/resilience.hpp"
#include "core/tuning.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "sim/simulate.hpp"
#include "sim/trace_io.hpp"
#include "sim/watchdog.hpp"
#include "support/tolerance.hpp"
#include "support/cli.hpp"
#include "support/taskset_io.hpp"

namespace {

using rbs::Expected;
using rbs::TaskSet;
using rbs::sim::SimConfig;
using rbs::sim::SimMetrics;
using rbs::sim::SimReport;
using rbs::sim::WatchdogOptions;
using rbs::sim::WatchdogReport;

/// One engine reused for every run of the campaign (the tool is
/// single-threaded): the redesigned facade keeps the calendar, job pool and
/// scratch buffers alive across runs, so re-simulation during shrinking is
/// allocation-free in the steady state.
rbs::sim::Simulator& campaign_simulator() {
  static rbs::sim::Simulator simulator;
  return simulator;
}

struct Scenario {
  std::string name;
  SimConfig cfg;
  WatchdogOptions opts;
  TaskSet set;  ///< the set actually simulated (fallback may reduce it)
};

/// Smallest speed the processor can be running at during any HI-mode episode
/// of the plan (the speed the degraded guarantee must be computed for).
double worst_achieved_speed(const SimConfig& cfg) {
  double worst = cfg.hi_speed;
  for (const rbs::sim::FaultSpec& e : cfg.faults.episodes) {
    if (e.deny_boost) worst = std::min(worst, 1.0);
    if (e.achieved_speed > 0.0) worst = std::min(worst, e.achieved_speed);
    if (e.throttle_after > 0.0)
      worst = std::min(worst, e.throttle_speed > 0.0 ? e.throttle_speed : 1.0);
  }
  return worst;
}

/// License + dwell bound for running `set` under `cfg`, derived from the
/// degraded-guarantee analysis at the worst achieved speed.
WatchdogOptions derive_license(const TaskSet& set, const SimConfig& cfg) {
  WatchdogOptions opts;
  const double achieved = worst_achieved_speed(cfg);
  // One fused facade sweep: the Theorem 2 verdict at the achieved speed plus
  // the Corollary 5 dwell bound, should the license end up needing it.
  const rbs::AnalysisReport report =
      rbs::Analyzer()
          .analyze(set, achieved, {.speedup = true, .reset = true, .lo = false})
          .value();
  opts.license.hi_mode_misses = !report.hi_schedulable;
  // Between budget polls an overrun runs undetected in LO mode, voiding the
  // LO-mode test; the latency analyses similarly exclude the engagement gap.
  opts.license.lo_mode_misses = cfg.faults.detection_period > 0.0;
  bool latency_free = rbs::approx_zero(cfg.speed_change_latency, rbs::kTimeTol);
  for (const rbs::sim::FaultSpec& e : cfg.faults.episodes)
    if (e.extra_latency > 0.0) latency_free = false;
  if (latency_free && !opts.license.hi_mode_misses &&
      rbs::approx_zero(cfg.faults.detection_period, rbs::kTimeTol) &&
      rbs::approx_zero(cfg.max_boost_duration, rbs::kTimeTol))
    opts.delta_r_bound = report.delta_r;
  return opts;
}

/// One fault of class `cls` for a run whose boost goes from speed 1 to `hi`.
rbs::sim::FaultSpec draw_fault(rbs::Rng& rng, int cls, double hi) {
  rbs::sim::FaultSpec spec;
  switch (cls) {
    case 0: spec.deny_boost = true; break;
    case 1: spec.achieved_speed = 1.0 + rng.uniform(0.25, 0.75) * (hi - 1.0); break;
    case 2: spec.extra_latency = rng.uniform(0.5, 4.0); break;
    default:
      spec.throttle_after = rng.uniform(0.5, 4.0);
      spec.throttle_speed = 1.0 + rng.uniform(0.0, 0.5) * (hi - 1.0);
      break;
  }
  return spec;
}

std::vector<std::vector<SimConfig::ScriptedJob>> script_from_trace(const TaskSet& set,
                                                                  const SimMetrics& result) {
  std::vector<std::vector<SimConfig::ScriptedJob>> script(set.size());
  for (const rbs::sim::JobRecord& j : result.trace.jobs)
    script[static_cast<std::size_t>(j.task_index)].push_back({j.release, j.demand});
  return script;
}

std::size_t job_count(const std::vector<std::vector<SimConfig::ScriptedJob>>& script) {
  std::size_t n = 0;
  for (const auto& jobs : script) n += jobs.size();
  return n;
}

/// Runs the scripted scenario and reports whether any violation remains.
bool still_fails(const Scenario& sc, const std::vector<std::vector<SimConfig::ScriptedJob>>& s) {
  SimConfig cfg = sc.cfg;
  cfg.scripted_arrivals = s;
  const Expected<SimReport> report = campaign_simulator().run(sc.set, cfg);
  if (!report) return false;
  return !rbs::sim::check_trace(sc.set, cfg, report.value().metrics, sc.opts).ok();
}

/// Greedy delta-debugging over the flattened job list: repeatedly try to
/// drop chunks (halving the chunk size) while the violation persists.
std::vector<std::vector<SimConfig::ScriptedJob>> shrink(
    const Scenario& sc, std::vector<std::vector<SimConfig::ScriptedJob>> script) {
  struct Ref {
    std::size_t task, index;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<Ref> refs;
    for (std::size_t t = 0; t < script.size(); ++t)
      for (std::size_t i = 0; i < script[t].size(); ++i) refs.push_back({t, i});
    if (refs.empty()) break;
    for (std::size_t chunk = refs.size(); chunk >= 1; chunk /= 2) {
      for (std::size_t begin = 0; begin < refs.size(); begin += chunk) {
        const std::size_t end = std::min(begin + chunk, refs.size());
        auto candidate = script;
        // Erase back-to-front so indices stay valid.
        for (std::size_t k = end; k > begin; --k) {
          const Ref& r = refs[k - 1];
          candidate[r.task].erase(candidate[r.task].begin() +
                                  static_cast<std::ptrdiff_t>(r.index));
        }
        if (still_fails(sc, candidate)) {
          script = std::move(candidate);
          progress = true;
          break;
        }
      }
      if (progress) break;
      if (chunk == 1) break;
    }
  }
  return script;
}

void report_failure(const Scenario& sc, const WatchdogReport& report,
                    const std::vector<std::vector<SimConfig::ScriptedJob>>& repro,
                    const std::string& dump_prefix) {
  std::cerr << "FAIL [" << sc.name << "] " << report.violations.size() << " violation(s):\n";
  for (const rbs::sim::Violation& v : report.violations)
    std::cerr << "  t=" << v.time << " " << rbs::sim::to_string(v.kind) << " task=" << v.task_index
              << " job=" << v.job_id << ": " << v.detail << "\n";
  std::cerr << "minimal repro: " << job_count(repro) << " job(s)\n";
  std::cerr << "config: hi_speed=" << sc.cfg.hi_speed
            << " horizon=" << sc.cfg.horizon << " seed=" << sc.cfg.seed
            << " detection_period=" << sc.cfg.faults.detection_period << "\n";
  std::cerr << "task set:\n";
  rbs::write_task_set(std::cerr, sc.set);
  std::cerr << "jobs:\n";
  for (std::size_t t = 0; t < repro.size(); ++t)
    for (const SimConfig::ScriptedJob& j : repro[t])
      std::cerr << "  task=" << t << " release=" << j.release << " demand=" << j.demand << "\n";

  if (!dump_prefix.empty()) {
    if (!rbs::write_task_set_file(dump_prefix + ".taskset", sc.set))
      std::cerr << "warning: could not write " << dump_prefix << ".taskset\n";
    SimConfig cfg = sc.cfg;
    cfg.scripted_arrivals = repro;
    const Expected<SimReport> rerun = campaign_simulator().run(sc.set, cfg);
    if (rerun) {
      std::ofstream out(dump_prefix + ".trace.json");
      rbs::sim::write_trace_json(out, sc.set, rerun.value().metrics);
      std::cerr << "repro written to " << dump_prefix << ".{taskset,trace.json}\n";
    }
  }
}

}  // namespace

namespace {

/// Per-set counter deltas, journaled as the payload of one kOk record so a
/// resumed sweep restores its totals without re-simulating finished sets.
struct SetCounters {
  std::uint64_t runs = 0, licensed = 0, faulted = 0, fallback = 0, exit_code = 0;
};

std::string encode_counters(const SetCounters& c) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "%llu,%llu,%llu,%llu,%llu",
                static_cast<unsigned long long>(c.runs),
                static_cast<unsigned long long>(c.licensed),
                static_cast<unsigned long long>(c.faulted),
                static_cast<unsigned long long>(c.fallback),
                static_cast<unsigned long long>(c.exit_code));
  return buffer;
}

std::optional<SetCounters> decode_counters(const std::string& payload) {
  SetCounters c;
  unsigned long long runs = 0, licensed = 0, faulted = 0, fallback = 0, exit_code = 0;
  char trailing = 0;
  if (std::sscanf(payload.c_str(), "%llu,%llu,%llu,%llu,%llu%c", &runs, &licensed, &faulted,
                  &fallback, &exit_code, &trailing) != 5)
    return std::nullopt;
  c.runs = runs;
  c.licensed = licensed;
  c.faulted = faulted;
  c.fallback = fallback;
  c.exit_code = exit_code;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const rbs::CliArgs args(argc, argv);
  if (args.get_bool("help")) {
    std::cout << "usage: stress_protocol [--seed N] [--sets N] [--plans N] [--horizon T]\n"
              << "                       [--u-bound U] [--dump-repro PREFIX] [--verbose]\n"
              << "                       [--checkpoint PATH [--resume]] [--max-seconds S]\n"
              << "exit codes: 0 clean, 1 violation, 2 usage, 75 interrupted-but-resumable\n";
    return 0;
  }
  if (const rbs::Status flags =
          args.check_flags({"seed", "sets", "plans", "horizon", "u-bound", "dump-repro",
                            "verbose", "help", "checkpoint", "resume", "max-seconds"});
      !flags) {
    std::cerr << flags.message() << "\n";
    return 2;
  }

  const Expected<std::int64_t> seed = args.get_int_checked("seed", 1);
  const Expected<std::int64_t> n_sets = args.get_int_checked("sets", 8);
  const Expected<std::int64_t> n_plans = args.get_int_checked("plans", 4);
  const Expected<double> horizon = args.get_double_checked("horizon", 20000.0);
  const Expected<double> u_bound = args.get_double_checked("u-bound", 0.5);
  const Expected<double> max_seconds = args.get_double_checked("max-seconds", 0.0);
  for (const rbs::Status& s : {seed.status(), n_sets.status(), n_plans.status(),
                               horizon.status(), u_bound.status(), max_seconds.status()})
    if (!s) {
      std::cerr << s.message() << "\n";
      return 2;
    }
  const std::string dump_prefix = args.get_string("dump-repro", "");
  const bool verbose = args.get_bool("verbose");
  const std::string checkpoint = args.get_string("checkpoint", "");
  const bool resume = args.has("resume");
  if (resume && checkpoint.empty()) {
    std::cerr << "error: --resume requires --checkpoint PATH\n";
    return 2;
  }

  // ---- checkpoint journal: one record per finished set --------------------
  // The header ties the journal to the sweep's full parameterisation; resume
  // refuses a journal from a different workload.
  namespace campaign = rbs::campaign;
  char tag_buffer[160];
  std::snprintf(tag_buffer, sizeof tag_buffer,
                "stress_protocol|plans=%lld|horizon=%.17g|u=%.17g",
                static_cast<long long>(n_plans.value()), horizon.value(), u_bound.value());
  const campaign::JournalHeader header{static_cast<std::uint64_t>(seed.value()),
                                       static_cast<std::uint64_t>(n_sets.value()), tag_buffer};
  std::optional<campaign::OpenedJournal> journal;
  if (!checkpoint.empty()) {
    auto opened = campaign::open_journal(checkpoint + ".stress.journal", header, resume);
    if (!opened) {
      std::cerr << "error: " << opened.status().message() << "\n";
      return 1;
    }
    journal = std::move(opened).value();
    if (!journal->note.empty()) std::cerr << "note: " << journal->note << "\n";
  }

  const std::atomic<bool>* stop = campaign::install_stop_handlers();
  const auto t_start = std::chrono::steady_clock::now();
  const auto out_of_budget = [&] {
    if (max_seconds.value() <= 0.0) return false;
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t_start;
    return elapsed.count() >= max_seconds.value();
  };

  rbs::Rng master(static_cast<std::uint64_t>(seed.value()));
  std::size_t runs = 0, licensed_misses = 0, faulted_runs = 0, fallback_runs = 0;
  std::size_t skipped_done = 0;
  int exit_code = 0;
  bool interrupted = false;

  for (std::int64_t si = 0; si < n_sets.value(); ++si) {
    // The fork is drawn unconditionally so journaled-complete sets keep the
    // RNG sequence aligned for the sets that still need to run.
    const std::uint64_t set_seed = master.fork_seed();
    if (journal && journal->loaded) {
      if (const campaign::JournalRecord* done =
              journal->loaded->final_record(static_cast<std::uint64_t>(si))) {
        const auto counters = decode_counters(done->payload);
        if (!counters) {
          std::cerr << "error: journaled record for set " << si << " has an unreadable "
                    << "payload '" << done->payload << "'\n";
          return 1;
        }
        runs += counters->runs;
        licensed_misses += counters->licensed;
        faulted_runs += counters->faulted;
        fallback_runs += counters->fallback;
        if (counters->exit_code != 0) exit_code = static_cast<int>(counters->exit_code);
        ++skipped_done;
        continue;
      }
    }
    if (stop->load(std::memory_order_relaxed) || out_of_budget()) {
      interrupted = true;
      break;
    }
    SetCounters set_counters;
    // Journals the finished set and folds its deltas into the totals.
    const auto finish_set = [&](const SetCounters& c) {
      runs += c.runs;
      licensed_misses += c.licensed;
      faulted_runs += c.faulted;
      fallback_runs += c.fallback;
      if (journal) {
        const rbs::Status appended =
            journal->writer.append({static_cast<std::uint64_t>(si), 1,
                                    campaign::JournalRecord::Kind::kOk, encode_counters(c)});
        if (!appended)
          std::cerr << "warning: journal append failed: " << appended.message() << "\n";
      }
    };
    rbs::Rng rng(set_seed);

    // -- generate a LO-mode-schedulable set with finite s_min ---------------
    // Periods are kept well under the horizon so each run releases hundreds
    // of jobs; x and y are spread out so s_min lands on both sides of 1
    // (boost-denied is only interesting when s_min > 1).
    rbs::GenParams gen;
    gen.u_bound = u_bound.value();
    gen.period_min = 20;
    gen.period_max = 2000;
    std::optional<rbs::ImplicitSet> skeleton;
    for (int attempt = 0; attempt < 16 && !skeleton; ++attempt)
      skeleton = rbs::generate_task_set(gen, rng);
    if (!skeleton) {
      finish_set(set_counters);
      continue;
    }
    const rbs::MinXResult mx = rbs::min_x_for_lo(*skeleton);
    if (!mx.feasible) {
      finish_set(set_counters);
      continue;
    }
    const double x = std::min(1.0, mx.x * (1.0 + rng.uniform(0.02, 0.6)));
    const double y = rng.uniform(1.05, 2.5);
    const TaskSet set = skeleton->materialize(x, y);
    const rbs::AnalysisReport set_report =
        rbs::Analyzer().analyze(set, 1.0, {.speedup = true, .reset = false, .lo = true}).value();
    const double s_min = set_report.s_min;
    if (!std::isfinite(s_min) || !set_report.lo_schedulable) {
      finish_set(set_counters);
      continue;
    }

    SimConfig base;
    base.horizon = horizon.value();
    base.hi_speed = s_min * (1.0 + rng.uniform(0.05, 0.5));
    base.demand.overrun_probability = rng.uniform(0.05, 0.5);
    base.release_jitter = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.3) : 0.0;
    base.record_trace = true;
    base.seed = rng.fork_seed();

    std::vector<Scenario> scenarios;
    scenarios.push_back({"no-fault", base, derive_license(set, base), set});

    for (std::int64_t pi = 0; pi < n_plans.value(); ++pi) {
      SimConfig cfg = base;
      cfg.seed = rng.fork_seed();
      // Pre-resolve the faults into a scripted, recycled episode list so the
      // achieved speeds are known statically (replay + licensing need them).
      const int cls = static_cast<int>(rng.uniform_int(0, 4));  // 4 = mixed
      const std::size_t n_episodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
      for (std::size_t e = 0; e < n_episodes; ++e) {
        const int episode_cls = cls == 4 ? static_cast<int>(rng.uniform_int(0, 3)) : cls;
        cfg.faults.episodes.push_back(rng.bernoulli(0.75)
                                          ? draw_fault(rng, episode_cls, cfg.hi_speed)
                                          : rbs::sim::FaultSpec{});
      }
      cfg.faults.recycle = true;
      if (rng.bernoulli(0.3)) cfg.faults.detection_period = rng.uniform(1.0, 8.0);
      scenarios.push_back({"faults-" + std::to_string(pi), cfg, derive_license(set, cfg), set});
    }

    // -- boost denied + the analysis-chosen fallback ------------------------
    {
      SimConfig cfg = base;
      cfg.seed = rng.fork_seed();
      cfg.faults.episodes.push_back({});
      cfg.faults.episodes.back().deny_boost = true;
      cfg.faults.recycle = true;
      const rbs::DegradedGuarantee d = rbs::analyze_degraded(set, 1.0);
      if (d.feasible && !d.schedulable_unmodified) {
        const Expected<TaskSet> reduced = rbs::apply_termination(set, d.fallback.terminated);
        if (reduced) {
          WatchdogOptions opts = derive_license(reduced.value(), cfg);
          opts.delta_r_bound = d.delta_r;
          scenarios.push_back({"denied+fallback", cfg, opts, reduced.value()});
          ++set_counters.fallback;
        }
      }
    }

    for (const Scenario& sc : scenarios) {
      const Expected<SimReport> sim_report = campaign_simulator().run(sc.set, sc.cfg);
      if (!sim_report) {
        std::cerr << "config rejected [" << sc.name << "]: " << sim_report.error_message() << "\n";
        return 2;
      }
      const SimMetrics& result = sim_report.value().metrics;
      ++set_counters.runs;
      if (result.faults_injected > 0) ++set_counters.faulted;
      if (sc.opts.license.hi_mode_misses || sc.opts.license.lo_mode_misses)
        set_counters.licensed += result.misses.size();
      const WatchdogReport report = rbs::sim::check_trace(sc.set, sc.cfg, result, sc.opts);
      if (verbose)
        std::cout << "set " << si << " [" << sc.name << "]: " << result.mode_switches
                  << " switches, " << result.misses.size() << " misses, "
                  << report.violations.size() << " violations\n";
      if (report.ok()) continue;

      exit_code = 1;
      set_counters.exit_code = 1;
      auto script = script_from_trace(sc.set, result);
      if (still_fails(sc, script)) script = shrink(sc, std::move(script));
      report_failure(sc, report, script, dump_prefix);
    }
    finish_set(set_counters);
    if (exit_code != 0) break;
  }

  if (skipped_done > 0)
    std::cout << "resumed: " << skipped_done << " set(s) restored from the journal\n";
  if (interrupted && exit_code == 0) {
    std::cout << "stress_protocol: interrupted ("
              << (stop->load(std::memory_order_relaxed) ? "stop signal" : "--max-seconds budget")
              << "); progress checkpointed" << (journal ? "" : " NOWHERE (no --checkpoint)")
              << ", rerun with --resume to finish\n";
    return campaign::kExitResumable;
  }
  std::cout << "stress_protocol: " << runs << " runs (" << faulted_runs << " faulted, "
            << fallback_runs << " with fallback), " << licensed_misses << " licensed miss(es), "
            << (exit_code == 0 ? "no" : "FOUND") << " unlicensed violations\n";
  return exit_code;
}
