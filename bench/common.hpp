// Shared helpers for the experiment harnesses (one binary per paper
// table/figure; see DESIGN.md section 3).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/supervisor.hpp"
#include "gen/taskgen.hpp"
#include "rbs.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/det_annotations.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace rbs::bench {

/// Prints the standard experiment banner.
inline void banner(const std::string& experiment, const std::string& description) {
  std::cout << "=== " << experiment << " ===\n" << description << "\n\n";
}

/// Opens a CSV file in the --csv directory (if given); returns nullopt when
/// the flag is absent. A file that cannot be opened (a missing or unwritable
/// directory) ends the bench with exit status 1, so a caller that asked for
/// the CSV never reads success without it.
inline std::optional<CsvWriter> open_csv(const CliArgs& args, const std::string& name) {
  if (!args.has("csv")) return std::nullopt;
  const std::string dir = args.get_string("csv", ".");
  CsvWriter writer(dir + "/" + name);
  if (!writer.ok()) {
    std::cerr << "error: cannot write CSV output under '" << dir << "' (tried " << name
              << ")\n";
    std::exit(1);
  }
  return writer;
}

/// The shared `--jobs N` / `--seed N` campaign knobs. jobs defaults to 1 (the
/// serial baseline); 0 means one worker per hardware core. Campaign output is
/// byte-identical for every jobs value (see campaign/supervisor.hpp).
inline campaign::CampaignOptions parse_campaign(const CliArgs& args,
                                                std::uint64_t default_seed = 1) {
  campaign::CampaignOptions options;
  options.jobs = static_cast<unsigned>(args.get_int("jobs", 1));
  options.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(default_seed)));
  return options;
}

/// The shared fault-tolerance knobs: `--checkpoint <path>` journals every
/// finished item attempt, `--resume` folds an existing journal back in,
/// `--item-deadline S` arms the watchdog, `--retries N` caps attempts.
struct CheckpointConfig {
  bool enabled = false;        ///< --checkpoint given
  std::string path;            ///< journal base path
  bool resume = false;         ///< --resume given
  double item_deadline_s = 0;  ///< --item-deadline (seconds; 0 = off)
  std::uint32_t max_attempts = 3;  ///< --retries
};

inline CheckpointConfig parse_checkpoint(const CliArgs& args) {
  CheckpointConfig cfg;
  cfg.enabled = args.has("checkpoint");
  cfg.path = args.get_string("checkpoint", "");
  cfg.resume = args.has("resume");
  cfg.item_deadline_s = args.get_double("item-deadline", 0.0);
  cfg.max_attempts = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, args.get_int("retries", 3)));
  if (cfg.resume && !cfg.enabled) {
    std::cerr << "error: --resume requires --checkpoint <path>\n";
    std::exit(2);
  }
  return cfg;
}

/// Encodes a result row as comma-joined %.17g fields -- enough digits that
/// decode_fields() round-trips every double bit-exactly, so a row replayed
/// from a journal is byte-identical to a freshly computed one.
/// RBS_DET_PATH: journaled payloads are byte-compared across resume runs.
RBS_DET_PATH inline std::string encode_fields(const std::vector<double>& values) {
  std::string out;
  char buffer[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", values[i]);
    if (i != 0) out += ',';
    out += buffer;
  }
  return out;
}

inline std::optional<std::vector<double>> decode_fields(const std::string& payload,
                                                        std::size_t expected) {
  std::vector<double> values;
  const char* cursor = payload.c_str();
  for (;;) {
    char* end = nullptr;
    const double value = std::strtod(cursor, &end);
    if (end == cursor) return std::nullopt;
    values.push_back(value);
    cursor = end;
    if (*cursor == '\0') break;
    if (*cursor != ',') return std::nullopt;
    ++cursor;
  }
  if (values.size() != expected) return std::nullopt;
  return values;
}

/// Decodes a boolean field encoded as 1.0/0.0 (threshold comparison: the
/// round-trip is exact, but flags should not be compared with raw `==`).
inline bool decode_flag(double field) { return field > 0.5; }

/// Runs one named campaign with the full fault-tolerance stack: journal
/// checkpointing (`<path>.<name>` so multi-campaign binaries keep separate
/// journals), crash-safe resume, per-item soft deadlines, capped retries and
/// quarantine, and SIGINT/SIGTERM drain. Exits with kExitResumable when
/// interrupted (rerun with --resume to finish) and with 1 when a --resume
/// journal is corrupt or belongs to a different workload.
/// RBS_DET_PATH: the whole checkpoint/resume/report pipeline underneath must
/// reproduce bit-for-bit (item bodies arrive as an opaque SupervisedFn and
/// are audited at their own definition sites).
RBS_DET_PATH inline campaign::CampaignReport run_checkpointed(
    const CheckpointConfig& cfg, const std::string& name,
    const campaign::CampaignOptions& options, std::size_t count,
    const campaign::SupervisedFn& fn) {
  campaign::SupervisorOptions sup;
  sup.campaign = options;
  sup.soft_deadline_s = cfg.item_deadline_s;
  sup.max_attempts = cfg.max_attempts;
  sup.stop = campaign::install_stop_handlers();

  std::optional<campaign::OpenedJournal> journal;
  if (cfg.enabled) {
    auto opened = campaign::open_journal(cfg.path + "." + name + ".journal",
                                         {options.seed, count, name}, cfg.resume);
    if (!opened) {
      std::cerr << "error: " << opened.status().message() << "\n";
      std::exit(1);
    }
    journal = std::move(opened).value();
    if (!journal->note.empty()) std::cerr << "note: " << journal->note << "\n";
    sup.journal = &journal->writer;
  }

  const campaign::Supervisor supervisor(sup);
  const campaign::CampaignReport report =
      supervisor.run(count, fn, journal && journal->loaded ? &*journal->loaded : nullptr);

  if (!report.journal_error.empty())
    std::cerr << "warning: journal append failed: " << report.journal_error << "\n";
  if (report.interrupted) {
    std::cerr << "interrupted: campaign '" << name << "' checkpointed "
              << report.completed << "/" << count
              << " item(s); rerun with --resume to finish\n";
    std::exit(campaign::kExitResumable);
  }
  if (report.deadline_kills != 0)
    std::cerr << "note: " << report.deadline_kills << " deadline kill(s) in campaign '"
              << name << "'\n";
  for (std::size_t q = 0; q < report.quarantined.size(); ++q)
    std::cerr << "warning: item " << report.quarantined[q] << " quarantined after "
              << report.items[report.quarantined[q]].attempts << " attempt(s): "
              << report.errors[q] << "\n";
  return report;
}

/// Decodes a supervised campaign back into typed items (input order).
/// Quarantined or pending items stay default-constructed -- aggregation
/// treats them like generator misses; run_checkpointed() already warned.
template <typename Item, typename DecodeFn>
RBS_DET_PATH std::vector<Item> gather_items(const campaign::CampaignReport& report,
                                            DecodeFn decode) {
  std::vector<Item> items(report.items.size());
  std::size_t undecodable = 0;
  for (std::size_t i = 0; i < report.items.size(); ++i) {
    if (report.items[i].state != campaign::ItemOutcome::State::kOk) continue;
    if (auto item = decode(report.items[i].payload))
      items[i] = *item;
    else
      ++undecodable;
  }
  if (undecodable > 0)
    std::cerr << "warning: " << undecodable
              << " journaled item payload(s) failed to decode and were dropped\n";
  return items;
}

/// Draws skeletons from the item's private RNG stream until the acceptance
/// window is hit; nullopt after `attempts` misses (rare; callers count these
/// as skipped items).
inline std::optional<ImplicitSet> generate_with_retry(const GenParams& params, Rng& rng,
                                                      int attempts = 200) {
  for (int a = 0; a < attempts; ++a)
    if (auto skeleton = generate_task_set(params, rng)) return skeleton;
  return std::nullopt;
}

/// How the common overrun-preparation factor x is chosen ("x in all cases is
/// set to the minimum to guarantee LO mode schedulability"):
///   * kUtilization -- the EDF-VD rule x = U_HI(LO)/(1-U_LO(LO)) of [4],
///     which the magnitudes of the paper's Figs. 6-7 are consistent with
///     (default for those benches);
///   * kExact -- bisection over the exact processor-demand test; yields far
///     smaller x (deadlines collapse towards WCETs) and correspondingly
///     smaller required speedups (ablation; see EXPERIMENTS.md).
enum class XPolicy { kExact, kUtilization };

inline XPolicy parse_x_policy(const CliArgs& args, XPolicy fallback) {
  const std::string v = args.get_string("x-policy", "");
  if (v == "exact") return XPolicy::kExact;
  if (v == "util" || v == "utilization") return XPolicy::kUtilization;
  if (!v.empty()) std::cerr << "warning: unknown --x-policy '" << v << "'\n";
  return fallback;
}

/// The minimum x under `policy`, nudged upward (integer deadline rounding)
/// until the materialised set passes the exact LO-mode test; nullopt when
/// LO mode cannot be made schedulable.
inline std::optional<double> min_x_under_policy(const ImplicitSet& skeleton, XPolicy policy) {
  const MinXResult mx =
      policy == XPolicy::kExact ? min_x_for_lo(skeleton) : utilization_min_x(skeleton);
  if (!mx.feasible) return std::nullopt;
  for (double x = mx.x; approx_le(x, 1.0, kSpeedTol); x += 0.005) {
    const double clamped = std::min(x, 1.0);
    if (lo_mode_schedulable(skeleton.materialize(clamped, 1.0))) return clamped;
    if (clamped >= 1.0) break;
  }
  return std::nullopt;
}

/// Materialises a skeleton at the policy-minimal x with degradation y.
inline std::optional<TaskSet> materialize_min_x(const ImplicitSet& skeleton, double y,
                                                XPolicy policy = XPolicy::kExact) {
  const auto x = min_x_under_policy(skeleton, policy);
  if (!x) return std::nullopt;
  return skeleton.materialize(*x, y);
}

/// Terminating variant of materialize_min_x.
inline std::optional<TaskSet> materialize_min_x_terminating(
    const ImplicitSet& skeleton, XPolicy policy = XPolicy::kExact) {
  const auto x = min_x_under_policy(skeleton, policy);
  if (!x) return std::nullopt;
  return skeleton.materialize_terminating(*x);
}

}  // namespace rbs::bench
