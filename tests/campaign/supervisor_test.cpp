// Tests for the campaign engine (campaign/{pool,supervisor}.hpp): the
// per-item RNG stream derivation, the thread pool, retry/quarantine policy,
// soft-deadline kills, stop drains, journal-backed resume, and the
// determinism contract (any jobs count, resumed or not -> same payloads,
// gathered in input order).
#include "campaign/supervisor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/pool.hpp"
#include "core/analysis.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs::campaign {
namespace {

SupervisorOptions base_options(unsigned jobs, std::uint64_t seed = 7) {
  SupervisorOptions o;
  o.campaign.jobs = jobs;
  o.campaign.seed = seed;
  return o;
}

/// The reference workload: one deterministic row per item, derived from the
/// item's private seed stream only.
std::string plain_row(std::size_t index, Rng& rng) {
  return std::to_string(index) + "," + std::to_string(rng.uniform_int(0, 1'000'000));
}

std::vector<std::string> payloads(const CampaignReport& report) {
  std::vector<std::string> out;
  out.reserve(report.items.size());
  for (const ItemOutcome& item : report.items) out.push_back(item.payload);
  return out;
}

TEST(ItemSeedTest, DeterministicAndPerItem) {
  EXPECT_EQ(item_seed(1, 0), item_seed(1, 0));
  EXPECT_NE(item_seed(1, 0), item_seed(1, 1));
  EXPECT_NE(item_seed(1, 0), item_seed(2, 0));
  // Neighbouring items and seeds must not collide over a modest range.
  for (std::uint64_t i = 0; i < 64; ++i)
    for (std::uint64_t j = i + 1; j < 64; ++j) EXPECT_NE(item_seed(7, i), item_seed(7, j));
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i)
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 10 * (round + 1));
  }
}

TEST(SupervisorTest, JobsOneResolvesToOneWorker) {
  EXPECT_EQ(Supervisor(base_options(1)).jobs(), 1u);
}

TEST(SupervisorTest, JobsZeroResolvesToHardware) {
  EXPECT_GE(Supervisor(base_options(0)).jobs(), 1u);
}

TEST(SupervisorTest, CompletesAllItemsAndMatchesAcrossJobCounts) {
  constexpr std::size_t kCount = 24;
  const SupervisedFn fn = [](std::size_t index, Rng& rng, const CancelToken&) {
    return plain_row(index, rng);
  };
  const CampaignReport serial = Supervisor(base_options(1)).run(kCount, fn);
  const CampaignReport wide = Supervisor(base_options(8)).run(kCount, fn);

  EXPECT_TRUE(serial.all_completed());
  EXPECT_EQ(serial.completed, kCount);
  EXPECT_FALSE(serial.interrupted);
  EXPECT_TRUE(serial.quarantined.empty());
  EXPECT_EQ(payloads(serial), payloads(wide));
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(serial.items[i].state, ItemOutcome::State::kOk);
    EXPECT_EQ(serial.items[i].attempts, 1u);
  }
}

TEST(SupervisorTest, GathersInInputOrder) {
  constexpr std::size_t kCount = 257;
  const CampaignReport report = Supervisor(base_options(8)).run(
      kCount, [](std::size_t index, Rng&, const CancelToken&) { return std::to_string(index); });
  ASSERT_EQ(report.items.size(), kCount);
  EXPECT_TRUE(report.all_completed());
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(report.items[i].state, ItemOutcome::State::kOk);
    EXPECT_EQ(report.items[i].payload, std::to_string(i));
  }
}

/// The bench_perf campaign workload in miniature: generate a random set from
/// the item's private stream, run one fused facade sweep, format a row. Any
/// schedule-dependence (shared RNG state, gather races) shows up as a
/// byte-level diff between worker counts.
std::string campaign_row(std::size_t index, const Analyzer& analyzer, Rng& rng) {
  GenParams params;
  params.u_bound = 0.5 + 0.1 * static_cast<double>(index % 4);
  const auto skeleton = generate_task_set(params, rng);
  if (!skeleton) return std::to_string(index) + ",skipped";
  const AnalysisReport r =
      analyzer
          .analyze(skeleton->materialize(0.5, 2.0), 2.0,
                   {.speedup = true, .reset = true, .lo = false})
          .value();
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "%zu,%.17g,%.17g,%zu", index, r.s_min, r.delta_r,
                r.fused_breakpoints);
  return buffer;
}

TEST(SupervisorTest, FiveHundredSetCampaignIsWorkerCountInvariant) {
  constexpr std::size_t kSets = 500;
  constexpr std::uint64_t kSeed = 42;
  const Analyzer analyzer;
  const SupervisedFn fn = [&analyzer](std::size_t index, Rng& rng, const CancelToken&) {
    return campaign_row(index, analyzer, rng);
  };
  const CampaignReport serial = Supervisor(base_options(1, kSeed)).run(kSets, fn);
  const CampaignReport wide = Supervisor(base_options(8, kSeed)).run(kSets, fn);
  ASSERT_TRUE(serial.all_completed());
  ASSERT_TRUE(wide.all_completed());
  for (std::size_t i = 0; i < kSets; ++i)
    EXPECT_EQ(serial.items[i].payload, wide.items[i].payload) << "item " << i;
}

TEST(SupervisorTest, RetriesTransientFailureWithTheSameSeedStream) {
  constexpr std::size_t kCount = 8;
  const CampaignReport clean = Supervisor(base_options(1)).run(
      kCount, [](std::size_t i, Rng& rng, const CancelToken&) { return plain_row(i, rng); });

  std::atomic<bool> armed{true};
  const CampaignReport faulty = Supervisor(base_options(4)).run(
      kCount, [&](std::size_t i, Rng& rng, const CancelToken&) {
        if (i == 3 && armed.exchange(false)) throw std::runtime_error("transient glitch");
        return plain_row(i, rng);
      });

  EXPECT_TRUE(faulty.all_completed());
  EXPECT_EQ(faulty.retried, 1u);
  EXPECT_EQ(faulty.items[3].attempts, 2u);
  // The retry restarted item 3's private stream, so the row is unchanged.
  EXPECT_EQ(payloads(faulty), payloads(clean));
}

TEST(SupervisorTest, QuarantinesPoisonItemWithoutHurtingOthers) {
  constexpr std::size_t kCount = 10;
  SupervisorOptions options = base_options(4);
  options.max_attempts = 2;
  std::atomic<int> poison_runs{0};
  const CampaignReport report = Supervisor(options).run(
      kCount, [&](std::size_t i, Rng& rng, const CancelToken&) -> std::string {
        if (i == 5) {
          ++poison_runs;
          throw std::runtime_error("deterministic poison");
        }
        return plain_row(i, rng);
      });

  EXPECT_EQ(poison_runs.load(), 2);
  EXPECT_EQ(report.completed, kCount - 1);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], 5u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("deterministic poison"), std::string::npos);
  EXPECT_EQ(report.items[5].state, ItemOutcome::State::kQuarantined);
  EXPECT_EQ(report.items[5].attempts, 2u);
  EXPECT_EQ(report.retried, 1u);  // the first poison attempt was requeued once
  EXPECT_FALSE(report.interrupted);
  for (std::size_t i = 0; i < kCount; ++i)
    if (i != 5) EXPECT_EQ(report.items[i].state, ItemOutcome::State::kOk);
}

TEST(SupervisorTest, DeadlineKillsHangingItemAndTheRetrySucceeds) {
  constexpr std::size_t kCount = 6;
  SupervisorOptions options = base_options(2);
  options.soft_deadline_s = 0.05;
  std::atomic<bool> hang_armed{true};
  const CampaignReport report = Supervisor(options).run(
      kCount, [&](std::size_t i, Rng& rng, const CancelToken& token) {
        if (i == 2 && hang_armed.exchange(false)) {
          // A transient hang: spin on the token until the watchdog cancels.
          while (true) {
            token.throw_if_cancelled();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        return plain_row(i, rng);
      });

  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.deadline_kills, 1u);
  EXPECT_EQ(report.retried, 1u);
  EXPECT_EQ(report.items[2].attempts, 2u);
  EXPECT_EQ(report.items[2].state, ItemOutcome::State::kOk);

  // Same campaign without the hang: identical payloads.
  const CampaignReport clean = Supervisor(base_options(1)).run(
      kCount, [](std::size_t i, Rng& rng, const CancelToken&) { return plain_row(i, rng); });
  EXPECT_EQ(payloads(report), payloads(clean));
}

TEST(SupervisorTest, StopFlagDrainsInFlightAndReportsInterrupted) {
  constexpr std::size_t kCount = 64;
  std::atomic<bool> stop{false};
  SupervisorOptions options = base_options(2);
  options.stop = &stop;
  const CampaignReport report = Supervisor(options).run(
      kCount, [&](std::size_t i, Rng& rng, const CancelToken&) {
        if (i == 0) stop.store(true);
        // Slow items so the 15 ms watchdog poll lands while work remains.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return plain_row(i, rng);
      });

  EXPECT_TRUE(report.interrupted);
  EXPECT_LT(report.completed, kCount);
  EXPECT_GT(report.completed, 0u);  // drained items keep their results
  std::size_t pending = 0;
  for (const ItemOutcome& item : report.items)
    if (item.state == ItemOutcome::State::kPending) ++pending;
  EXPECT_EQ(pending, kCount - report.completed);
  EXPECT_TRUE(report.quarantined.empty());
}

TEST(SupervisorTest, ResumeInstallsJournaledVerdictsAndRunsOnlyTheRest) {
  constexpr std::size_t kCount = 6;
  SupervisorOptions options = base_options(2);
  options.max_attempts = 2;

  LoadedJournal loaded;
  loaded.header = {options.campaign.seed, kCount, "test"};
  loaded.records = {
      {0, 1, JournalRecord::Kind::kOk, "journaled-0"},
      {1, 1, JournalRecord::Kind::kFailed, "glitch"},               // 1 retry left
      {2, 1, JournalRecord::Kind::kFailed, "poison"},               // budget
      {2, 2, JournalRecord::Kind::kFailed, "poison"},               //   exhausted
      {3, 2, JournalRecord::Kind::kQuarantined, "already judged"},  // final verdict
  };

  std::mutex mu;
  std::set<std::size_t> executed;
  const CampaignReport report = Supervisor(options).run(
      kCount,
      [&](std::size_t i, Rng& rng, const CancelToken&) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          executed.insert(i);
        }
        return plain_row(i, rng);
      },
      &loaded);

  // Item 0 kept its journaled payload without re-running; 3 stayed
  // quarantined; 2 had no retry budget left and was quarantined on resume.
  EXPECT_EQ(executed, (std::set<std::size_t>{1, 4, 5}));
  EXPECT_EQ(report.items[0].payload, "journaled-0");
  EXPECT_EQ(report.items[0].state, ItemOutcome::State::kOk);
  EXPECT_EQ(report.items[3].state, ItemOutcome::State::kQuarantined);
  EXPECT_EQ(report.items[2].state, ItemOutcome::State::kQuarantined);
  EXPECT_NE(report.items[2].payload.find("poison"), std::string::npos);
  EXPECT_EQ(report.items[1].state, ItemOutcome::State::kOk);
  EXPECT_EQ(report.items[1].attempts, 2u);  // one journaled failure + the rerun
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ((std::vector<std::size_t>{2, 3}), report.quarantined);
  EXPECT_FALSE(report.interrupted);
}

TEST(SupervisorTest, JournalRoundTripReproducesTheUninterruptedCampaign) {
  constexpr std::size_t kCount = 12;
  const std::string path = testing::TempDir() + "/supervisor_journal.jsonl";
  const JournalHeader header{7, kCount, "supervisor-test"};

  const CampaignReport clean = Supervisor(base_options(1)).run(
      kCount, [](std::size_t i, Rng& rng, const CancelToken&) { return plain_row(i, rng); });

  // First run: journal attached, one transient failure, stop after enough
  // verdicts landed (simulated by a fresh supervisor over a partial journal:
  // here we simply journal the full run, then resume finds nothing to do).
  {
    auto writer = JournalWriter::create(path, header);
    ASSERT_TRUE(writer.is_ok()) << writer.status().message();
    SupervisorOptions options = base_options(4);
    options.journal = &writer.value();
    std::atomic<bool> armed{true};
    const CampaignReport first = Supervisor(options).run(
        kCount, [&](std::size_t i, Rng& rng, const CancelToken&) {
          if (i == 9 && armed.exchange(false)) throw std::runtime_error("once");
          return plain_row(i, rng);
        });
    ASSERT_TRUE(first.all_completed());
    ASSERT_TRUE(first.journal_error.empty()) << first.journal_error;
    EXPECT_EQ(payloads(first), payloads(clean));
  }

  // The journal now holds 12 kOk verdicts and 1 kFailed attempt.
  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().records.size(), kCount + 1);
  EXPECT_EQ(loaded.value().failed_attempts(9), 1u);

  // Resume: every verdict is installed, the workload function never runs,
  // and the payloads still match the uninterrupted campaign.
  std::atomic<int> executions{0};
  const CampaignReport resumed = Supervisor(base_options(8)).run(
      kCount,
      [&](std::size_t i, Rng& rng, const CancelToken&) {
        ++executions;
        return plain_row(i, rng);
      },
      &loaded.value());
  EXPECT_EQ(executions.load(), 0);
  EXPECT_TRUE(resumed.all_completed());
  EXPECT_EQ(payloads(resumed), payloads(clean));
  EXPECT_EQ(resumed.retried, 1u);  // the journaled failed attempt is counted
  std::remove(path.c_str());
}

TEST(SupervisorTest, CancelTokenThrowsOnlyWhenFlagged) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.throw_if_cancelled());
  token.cancel(CancelToken::Reason::kDeadline);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kDeadline);
  // First reason wins.
  token.cancel(CancelToken::Reason::kStop);
  EXPECT_EQ(token.reason(), CancelToken::Reason::kDeadline);
  EXPECT_THROW(token.throw_if_cancelled(), CampaignCancelled);
}

TEST(SupervisorTest, DeadlineBoundaryCancellationJournalsExactlyOneRecord) {
  // The nastiest watchdog interleaving, made deterministic: the item spins
  // until the watchdog flags its token at the soft deadline, then finishes
  // successfully anyway -- completion and cancellation land at the same
  // boundary. The soft-deadline contract says the computed result wins, and
  // the journal must hold one record -- and only one -- for the item (no
  // kFailed ghost from the kill path racing the kOk from the worker). Run
  // under TSan in CI's campaign job, this also proves the token handoff
  // between watchdog and worker is race-free.
  const std::string path = testing::TempDir() + "/deadline_boundary_journal.jsonl";
  const JournalHeader header{7, 1, "deadline-boundary"};
  {
    auto writer = JournalWriter::create(path, header);
    ASSERT_TRUE(writer.is_ok()) << writer.status().message();
    SupervisorOptions options = base_options(2);
    options.soft_deadline_s = 0.03;  // watchdog polls every 15ms
    options.journal = &writer.value();
    const CampaignReport report = Supervisor(options).run(
        1, [](std::size_t index, Rng& rng, const CancelToken& token) {
          while (!token.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return plain_row(index, rng);  // finish exactly at the boundary
        });
    ASSERT_TRUE(report.all_completed());
    ASSERT_TRUE(report.journal_error.empty()) << report.journal_error;
    EXPECT_EQ(report.items[0].state, ItemOutcome::State::kOk);
    EXPECT_EQ(report.items[0].attempts, 1u);
    EXPECT_EQ(report.retried, 0u);
    // The kill never charged: the result arrived, so it is not a deadline loss.
    EXPECT_EQ(report.deadline_kills, 0u);
  }

  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().records.size(), 1u);
  EXPECT_EQ(loaded.value().records[0].index, 0u);
  EXPECT_EQ(loaded.value().records[0].attempt, 1u);
  EXPECT_EQ(loaded.value().records[0].kind, JournalRecord::Kind::kOk);
  EXPECT_EQ(loaded.value().duplicate_records, 0u);

  // Determinism across the cancellation: the payload equals an undisturbed
  // single-item run with the same seed.
  const CampaignReport undisturbed = Supervisor(base_options(1)).run(
      1, [](std::size_t i, Rng& rng, const CancelToken&) { return plain_row(i, rng); });
  EXPECT_EQ(loaded.value().records[0].payload, undisturbed.items[0].payload);
  std::remove(path.c_str());
}

TEST(SupervisorTest, ZeroItemsIsACompletedCampaign) {
  const CampaignReport report = Supervisor(base_options(4)).run(
      0, [](std::size_t, Rng&, const CancelToken&) { return std::string("unreached"); });
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.items.size(), 0u);
  EXPECT_FALSE(report.interrupted);
}

// --- DeadlineWatchdog (the piece Supervisor and the service layer share) ---

TEST(DeadlineWatchdogTest, InertWithoutDeadlineOrStopFlag) {
  DeadlineWatchdog watchdog({});
  EXPECT_FALSE(watchdog.active());
  auto token = std::make_shared<CancelToken>();
  EXPECT_EQ(watchdog.watch(token), 0u);
  watchdog.unwatch(0);  // quietly accepted
  EXPECT_FALSE(token->cancelled());
}

TEST(DeadlineWatchdogTest, CancelsOverdueTokensWithDeadlineReason) {
  DeadlineWatchdog::Options options;
  options.soft_deadline_s = 0.02;
  options.poll = std::chrono::milliseconds(2);
  DeadlineWatchdog watchdog(std::move(options));
  ASSERT_TRUE(watchdog.active());

  auto overdue = std::make_shared<CancelToken>();
  const std::uint64_t id = watchdog.watch(overdue);
  EXPECT_NE(id, 0u);
  for (int i = 0; i < 500 && !overdue->cancelled(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(overdue->reason(), CancelToken::Reason::kDeadline);

  // A token unwatched before its deadline is never touched.
  auto finished = std::make_shared<CancelToken>();
  watchdog.unwatch(watchdog.watch(finished));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_FALSE(finished->cancelled());
  watchdog.unwatch(id);
}

TEST(DeadlineWatchdogTest, StopFlagFiresCallbackOnceAndDrainsTokens) {
  std::atomic<bool> stop{false};
  std::atomic<int> stop_calls{0};
  DeadlineWatchdog::Options options;
  options.stop = &stop;
  options.on_stop = [&stop_calls] { ++stop_calls; };
  options.poll = std::chrono::milliseconds(2);
  DeadlineWatchdog watchdog(std::move(options));
  ASSERT_TRUE(watchdog.active());

  auto token = std::make_shared<CancelToken>();
  const std::uint64_t id = watchdog.watch(token);
  stop.store(true);
  for (int i = 0; i < 500 && !token->cancelled(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(token->reason(), CancelToken::Reason::kStop);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(stop_calls.load(), 1);  // exactly once, not once per poll
  watchdog.unwatch(id);
}

}  // namespace
}  // namespace rbs::campaign
