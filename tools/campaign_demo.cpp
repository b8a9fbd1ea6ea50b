// Fault-injection campaign driver for the kill-and-resume recovery suite
// (tests/recovery/kill_resume_test.cpp) and for demonstrating the
// fault-tolerant campaign stack end to end.
//
// Each item runs the same generate-and-analyze workload as bench_perf's
// campaign mode and formats one CSV row; the rows are gathered in index
// order and written atomically to --csv. Every knob of the supervisor is
// exposed:
//
//   campaign_demo [--sets N] [--jobs N] [--seed N] [--csv FILE]
//                 [--checkpoint PATH [--resume]] [--item-deadline S]
//                 [--retries N] [--item-ms M]
//                 [--inject-hang IDX] [--inject-fail IDX]
//
//   --item-ms M       sleep M ms inside every item (slows the campaign so an
//                     external SIGKILL reliably lands mid-run);
//   --inject-hang IDX item IDX spins on its CancelToken on its first
//                     execution in this process (deadline-killed, then the
//                     retry computes normally -- a transient hang);
//   --inject-fail IDX item IDX throws on every attempt (a poison item that
//                     exhausts its retries and lands in quarantine).
//
// The CSV depends only on --seed and --sets: a run killed at any point and
// finished with --resume produces a byte-identical file to an uninterrupted
// run at any --jobs count.
//
// Exit codes: 0 = every item has a final verdict (quarantines are reported
// on stderr but do not fail the run -- that is the point of quarantine),
// 1 = setup/journal error, 2 = bad usage, 75 = interrupted but resumable.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/supervisor.hpp"
#include "core/analysis.hpp"
#include "core/tuning.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"

namespace {

namespace campaign = rbs::campaign;

/// One deterministic workload item: draw a set from the item's private
/// stream, prepare it at the minimal x, run one fused analysis sweep.
std::string demo_row(std::size_t index, const rbs::Analyzer& analyzer, rbs::Rng& rng) {
  rbs::GenParams params;
  params.u_bound = 0.7;
  std::optional<rbs::ImplicitSet> skeleton;
  for (int attempt = 0; attempt < 200 && !skeleton; ++attempt)
    skeleton = rbs::generate_task_set(params, rng);
  if (!skeleton) return std::to_string(index) + ",skipped";
  const rbs::MinXResult mx = rbs::min_x_for_lo(*skeleton);
  if (!mx.feasible) return std::to_string(index) + ",infeasible";
  const rbs::TaskSet set = skeleton->materialize(mx.x, 2.0);
  const rbs::AnalysisReport r = analyzer.analyze(set, 2.0).value();
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "%zu,%.17g,%.17g,%d,%d,%zu", index, r.s_min, r.delta_r,
                r.lo_schedulable ? 1 : 0, r.hi_schedulable ? 1 : 0, r.fused_breakpoints);
  return buffer;
}

/// Spins on the token until the watchdog cancels this attempt; bails on its
/// own after 30 s so an unarmed watchdog cannot hang the binary forever.
void hang_until_cancelled(const campaign::CancelToken& token) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!token.cancelled()) {
    if (std::chrono::steady_clock::now() - t0 > std::chrono::seconds(30))
      throw std::runtime_error("injected hang timed out without a deadline kill");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  token.throw_if_cancelled();
}

}  // namespace

int main(int argc, char** argv) {
  const rbs::CliArgs args(argc, argv);
  if (const rbs::Status flags =
          args.check_flags({"sets", "jobs", "seed", "item-ms", "inject-hang", "inject-fail",
                            "item-deadline", "retries", "csv", "checkpoint", "resume"});
      !flags) {
    std::cerr << "error: " << flags.message() << "\n";
    return 2;
  }
  const auto n_sets = static_cast<std::size_t>(args.get_int("sets", 40));
  const std::int64_t inject_hang = args.get_int("inject-hang", -1);
  const std::int64_t inject_fail = args.get_int("inject-fail", -1);
  const std::int64_t item_ms = args.get_int("item-ms", 0);
  const std::string csv_path = args.get_string("csv", "");
  const std::string checkpoint = args.get_string("checkpoint", "");
  const bool resume = args.has("resume");
  if (resume && checkpoint.empty()) {
    std::cerr << "error: --resume requires --checkpoint PATH\n";
    return 2;
  }

  campaign::SupervisorOptions options;
  options.campaign.jobs = static_cast<unsigned>(args.get_int("jobs", 1));
  options.campaign.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.soft_deadline_s = args.get_double("item-deadline", 0.0);
  options.max_attempts =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, args.get_int("retries", 3)));
  options.stop = campaign::install_stop_handlers();

  std::optional<campaign::OpenedJournal> journal;
  if (!checkpoint.empty()) {
    auto opened =
        campaign::open_journal(checkpoint + ".demo.journal",
                               {options.campaign.seed, n_sets, "campaign_demo"}, resume);
    if (!opened) {
      std::cerr << "error: " << opened.status().message() << "\n";
      return 1;
    }
    journal = std::move(opened).value();
    if (!journal->note.empty()) std::cerr << "note: " << journal->note << "\n";
    options.journal = &journal->writer;
  }

  // The hang trips once per process: the first execution of the poisoned
  // item spins until the watchdog kills it, the retry computes normally.
  std::atomic<bool> hang_armed{inject_hang >= 0};
  const rbs::Analyzer analyzer;
  const campaign::Supervisor supervisor(options);
  const campaign::CampaignReport report = supervisor.run(
      n_sets,
      [&](std::size_t index, rbs::Rng& rng, const campaign::CancelToken& token) {
        if (item_ms > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(item_ms));
        if (static_cast<std::int64_t>(index) == inject_fail)
          throw std::runtime_error("injected failure (poison item)");
        if (static_cast<std::int64_t>(index) == inject_hang &&
            hang_armed.exchange(false))
          hang_until_cancelled(token);
        return demo_row(index, analyzer, rng);
      },
      journal && journal->loaded ? &*journal->loaded : nullptr);

  if (!report.journal_error.empty()) {
    std::cerr << "error: journal append failed: " << report.journal_error << "\n";
    return 1;
  }
  if (report.interrupted) {
    std::cerr << "interrupted: " << report.completed << "/" << n_sets
              << " item(s) checkpointed; rerun with --resume to finish\n";
    return campaign::kExitResumable;
  }

  std::cout << "campaign_demo: " << report.completed << "/" << n_sets << " completed, "
            << report.retried << " retried, " << report.deadline_kills << " deadline kill(s), "
            << report.quarantined.size() << " quarantined\n";
  for (std::size_t q = 0; q < report.quarantined.size(); ++q)
    std::cerr << "quarantined item " << report.quarantined[q] << " after "
              << report.items[report.quarantined[q]].attempts
              << " attempt(s): " << report.errors[q] << "\n";

  if (!csv_path.empty()) {
    rbs::CsvWriter csv(csv_path);
    if (!csv.ok()) {
      std::cerr << "error: cannot write CSV '" << csv_path << "'\n";
      return 1;
    }
    csv.write_row({"index", "s_min", "delta_r", "lo_ok", "hi_ok", "fused_breakpoints"});
    for (std::size_t i = 0; i < n_sets; ++i) {
      const campaign::ItemOutcome& item = report.items[i];
      if (item.state == campaign::ItemOutcome::State::kOk)
        csv.write_raw_line(item.payload);
      else
        csv.write_raw_line(std::to_string(i) + ",quarantined");
    }
    if (!csv.commit()) {
      std::cerr << "error: could not commit CSV '" << csv_path << "'\n";
      return 1;
    }
  }
  return 0;
}
