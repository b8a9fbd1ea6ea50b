// Load driver for the analysis server: deterministic request traces with
// fault injection, overload assertions for the acceptance suite, and a JSON
// summary of the run (--json) whose counters the recovery tests read.
// Service throughput is measured by bench/suite/run.py.
//
//   service_load [--requests N] [--workers N] [--seed N] [--queue N]
//                [--hi-fraction F] [--hi-enter N] [--lo-exit N]
//                [--item-deadline S] [--retries N] [--backoff S]
//                [--inject-fail-every K] [--repeat-every K] [--hook-ms M]
//                [--cache PATH] [--paused] [--csv FILE] [--json FILE]
//                [--dump FILE] [--expect-overload] [--quiet]
//
//   --paused             queue the whole trace before the first dequeue, so
//                        admission decisions depend only on the trace (the
//                        determinism tests run this with --workers 1);
//   --repeat-every K     every Kth request reuses request 0's task set
//                        (exercises the cache + single-flight);
//   --inject-fail-every K every Kth served attempt throws on its first try
//                        (exercises retry/backoff);
//   --hook-ms M          sleep M ms inside every attempt (builds a backlog
//                        in live mode);
//   --dump FILE          one line per request, in submit order:
//                        `id,serialized-report` (or `id,shed` / `id,error`);
//                        the recovery test byte-compares this across a
//                        SIGKILL + warm restart;
//   --expect-overload    exit nonzero unless the run mode-switched to HI,
//                        shed at least one LO request, shed ZERO HI
//                        requests, and returned to LO after the drain --
//                        the acceptance criteria of the service, asserted
//                        by the binary itself so a plain ctest invocation
//                        is the gate.
//
// Exit codes: 0 = ok (assertions, if any, passed), 1 = setup error or
// failed assertion, 2 = bad usage, 75 = interrupted by SIGINT/SIGTERM
// (campaign::kExitResumable; the cache WAL warm-starts the next run).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/supervisor.hpp"
#include "core/analysis.hpp"
#include "core/tuning.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "service/server.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"

namespace {

namespace campaign = rbs::campaign;
namespace service = rbs::service;

/// Deterministic per-index workload, same generator family as campaign_demo:
/// the set depends only on the seed stream, never on timing.
rbs::TaskSet trace_set(std::uint64_t seed, std::size_t index) {
  rbs::Rng rng(campaign::item_seed(seed, index));
  rbs::GenParams params;
  params.u_bound = 0.7;
  std::optional<rbs::ImplicitSet> skeleton;
  for (int attempt = 0; attempt < 200 && !skeleton; ++attempt)
    skeleton = rbs::generate_task_set(params, rng);
  if (skeleton) {
    const rbs::MinXResult mx = rbs::min_x_for_lo(*skeleton);
    if (mx.feasible) return skeleton->materialize(mx.x, 2.0);
  }
  // Generation dry spell: fall back to a small fixed set so the trace always
  // has `requests` entries.
  return rbs::TaskSet({rbs::McTask::hi("h", 1, 2, 4, 8, 8),
                       rbs::McTask::lo("l", 2, 6, 10, 10, 10)});
}

}  // namespace

int main(int argc, char** argv) {
  const rbs::CliArgs args(argc, argv);
  if (const rbs::Status flags = args.check_flags(
          {"requests", "seed", "hi-fraction", "inject-fail-every", "repeat-every", "hook-ms",
           "paused", "expect-overload", "quiet", "csv", "json", "dump", "workers", "queue",
           "item-deadline", "retries", "backoff", "hi-enter", "lo-exit", "cache",
           "cache-capacity"});
      !flags) {
    std::cerr << "error: " << flags.message() << "\n";
    return 2;
  }
  const auto n_requests = static_cast<std::size_t>(args.get_int("requests", 100));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double hi_fraction = args.get_double("hi-fraction", 0.3);
  const std::int64_t inject_fail_every = args.get_int("inject-fail-every", 0);
  const std::int64_t repeat_every = args.get_int("repeat-every", 0);
  const std::int64_t hook_ms = args.get_int("hook-ms", 0);
  const bool paused = args.has("paused");
  const bool expect_overload = args.has("expect-overload");
  const bool quiet = args.has("quiet");
  const std::string csv_path = args.get_string("csv", "");
  const std::string json_path = args.get_string("json", "");
  const std::string dump_path = args.get_string("dump", "");
  if (hi_fraction < 0.0 || hi_fraction > 1.0) {
    std::cerr << "error: --hi-fraction must be in [0, 1]\n";
    return 2;
  }

  service::ServerOptions options;
  options.workers = static_cast<unsigned>(args.get_int("workers", 2));
  // Default the queue wide enough to hold the whole paused trace: shedding
  // should come from the admission policy under test, not from accidental
  // capacity pressure (HI submits BLOCK on a full queue).
  options.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", static_cast<std::int64_t>(n_requests) + 1));
  options.soft_deadline_s = args.get_double("item-deadline", 0.0);
  options.max_attempts =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, args.get_int("retries", 2)));
  options.retry_backoff_s = args.get_double("backoff", 0.0);
  options.admission.hi_enter_depth = static_cast<std::size_t>(args.get_int("hi-enter", 64));
  options.admission.lo_exit_depth = static_cast<std::size_t>(args.get_int("lo-exit", 8));
  options.cache.journal_path = args.get_string("cache", "");
  options.cache.capacity = static_cast<std::size_t>(args.get_int("cache-capacity", 1024));
  options.start_paused = paused;
  options.stop = campaign::install_stop_handlers();

  std::atomic<std::uint64_t> hook_calls{0};
  if (inject_fail_every > 0 || hook_ms > 0) {
    options.fault_hook = [inject_fail_every, hook_ms, &hook_calls](
                             const rbs::AnalysisRequest&, std::uint32_t attempt) {
      if (hook_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(hook_ms));
      const std::uint64_t call = ++hook_calls;
      if (inject_fail_every > 0 && attempt == 1 &&
          call % static_cast<std::uint64_t>(inject_fail_every) == 0)
        throw std::runtime_error("injected transient fault");
    };
  }

  rbs::Expected<service::AnalysisServer> server_or = service::AnalysisServer::open(options);
  if (!server_or.is_ok()) {
    std::cerr << "error: " << server_or.status().message() << "\n";
    return 1;
  }
  service::AnalysisServer& server = server_or.value();

  // Wall-clock throughput is reporting-only; every asserted quantity below
  // is a deterministic counter.
  const auto t0 = std::chrono::steady_clock::now();

  struct Issued {
    rbs::Criticality priority = rbs::Criticality::LO;
    std::future<service::Response> future;
  };
  std::vector<Issued> issued;
  issued.reserve(n_requests);
  for (std::size_t i = 0; i < n_requests; ++i) {
    rbs::AnalysisRequest request;
    const std::size_t set_index =
        repeat_every > 0 && i % static_cast<std::size_t>(repeat_every) == 0 ? 0 : i;
    request.set = trace_set(seed, set_index);
    request.speed = 2.0;
    // Deterministic priority striping: the first hi_fraction of every
    // 100-request window is HI.
    request.priority = static_cast<double>(i % 100) < hi_fraction * 100.0
                           ? rbs::Criticality::HI
                           : rbs::Criticality::LO;
    Issued entry;
    entry.priority = request.priority;
    entry.future = server.submit(static_cast<std::uint64_t>(i), std::move(request));
    issued.push_back(std::move(entry));
    if (campaign::stop_requested()) break;
  }

  if (paused) server.start();
  server.drain();

  std::uint64_t hi_shed = 0, lo_shed = 0, ok = 0, failed = 0, cache_hits = 0, degraded = 0;
  std::vector<std::string> dump_lines;
  if (!dump_path.empty()) dump_lines.reserve(issued.size());
  for (Issued& entry : issued) {
    const service::Response response = entry.future.get();
    std::string verdict;
    if (response.status.is_overloaded()) {
      if (entry.priority == rbs::Criticality::HI) ++hi_shed;
      else ++lo_shed;
      verdict = "shed";
    } else if (response.status.is_ok()) {
      ++ok;
      if (response.cache_hit) ++cache_hits;
      if (response.degraded) ++degraded;
      verdict = response.serialized;
    } else {
      ++failed;
      verdict = "error";
    }
    if (!dump_path.empty())
      dump_lines.push_back(std::to_string(response.id) + ',' + verdict);
  }

  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  const service::ServiceStats stats = server.stats();
  const double seconds = elapsed.count();
  // Offered counts every issued request, shed ones included; completed
  // counts only the ok responses.
  const auto per_sec = [seconds](double count) {
    return seconds > 0.0 ? count / seconds : 0.0;
  };
  const double offered_per_sec = per_sec(static_cast<double>(issued.size()));
  const double completed_per_sec = per_sec(static_cast<double>(stats.completed));
  const double shed_rate =
      issued.empty() ? 0.0
                     : static_cast<double>(stats.shed_lo) / static_cast<double>(issued.size());

  if (!quiet) {
    std::cout << "service_load: " << ok << " ok (" << cache_hits << " cached, " << degraded
              << " degraded), " << stats.shed_lo << " shed, " << failed
              << " failed, mode " << service::to_string(stats.mode) << ", "
              << stats.mode_switches_to_hi << " switch(es) to HI\n";
  }

  if (!csv_path.empty()) {
    rbs::CsvWriter csv(csv_path);
    if (!csv.ok()) {
      std::cerr << "error: cannot write CSV '" << csv_path << "'\n";
      return 1;
    }
    csv.write_raw_line(service::ServiceStats::csv_header());
    csv.write_raw_line(stats.csv_row());
    if (!csv.commit()) {
      std::cerr << "error: could not commit CSV '" << csv_path << "'\n";
      return 1;
    }
  }

  if (!dump_path.empty()) {
    rbs::CsvWriter dump(dump_path);
    if (!dump.ok()) {
      std::cerr << "error: cannot write dump '" << dump_path << "'\n";
      return 1;
    }
    for (const std::string& line : dump_lines) dump.write_raw_line(line);
    if (!dump.commit()) {
      std::cerr << "error: could not commit dump '" << dump_path << "'\n";
      return 1;
    }
  }

  if (!json_path.empty()) {
    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
      std::cerr << "error: cannot write JSON '" << json_path << "'\n";
      return 1;
    }
    std::fprintf(json,
                 "{\n"
                 "  \"benchmark\": \"service_load\",\n"
                 "  \"requests\": %zu,\n"
                 "  \"workers\": %u,\n"
                 "  \"seconds\": %.6f,\n"
                 "  \"offered_per_sec\": %.2f,\n"
                 "  \"completed_per_sec\": %.2f,\n"
                 "  \"shed_rate\": %.6f,\n"
                 "  \"completed\": %llu,\n"
                 "  \"shed_lo\": %llu,\n"
                 "  \"hi_shed\": %llu,\n"
                 "  \"degraded\": %llu,\n"
                 "  \"retried\": %llu,\n"
                 "  \"cache_hits\": %llu,\n"
                 "  \"coalesced\": %llu,\n"
                 "  \"mode_switches_to_hi\": %llu,\n"
                 "  \"mode_switches_to_lo\": %llu,\n"
                 "  \"final_mode\": \"%s\"\n"
                 "}\n",
                 issued.size(), options.workers, seconds, offered_per_sec, completed_per_sec,
                 shed_rate,
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.shed_lo),
                 static_cast<unsigned long long>(hi_shed),
                 static_cast<unsigned long long>(stats.degraded),
                 static_cast<unsigned long long>(stats.retried),
                 static_cast<unsigned long long>(stats.cache_hits),
                 static_cast<unsigned long long>(stats.coalesced),
                 static_cast<unsigned long long>(stats.mode_switches_to_hi),
                 static_cast<unsigned long long>(stats.mode_switches_to_lo),
                 service::to_string(stats.mode));
    std::fclose(json);
  }

  if (campaign::stop_requested()) {
    std::cerr << "interrupted: cache WAL (if any) warm-starts the next run\n";
    return campaign::kExitResumable;
  }

  if (expect_overload) {
    // The service-level acceptance criteria, asserted by the binary itself.
    const auto fail = [](const char* what) {
      std::cerr << "expect-overload FAILED: " << what << "\n";
      return 1;
    };
    if (stats.mode_switches_to_hi < 1)
      return fail("the server never mode-switched to HI under load");
    if (stats.shed_lo < 1) return fail("no LO request was shed under overload");
    if (hi_shed != 0) return fail("a HI request was shed (must never happen)");
    if (stats.mode != service::ServiceMode::kLo)
      return fail("the server did not return to LO after the burst drained");
  }
  return 0;
}
