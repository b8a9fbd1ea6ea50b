// Behavioural tests for the analysis server: criticality-aware admission,
// deterministic shed traces, degraded HI service under overload, retry and
// deadline handling, graceful stop, and a TSan-friendly burst soak.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "core/task.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/server.hpp"

namespace rbs::service {
namespace {

/// Small distinct-by-index task sets: always analyzable, never degenerate.
TaskSet indexed_set(std::size_t index) {
  const Ticks period = static_cast<Ticks>(20 + (index % 16));
  return TaskSet({McTask::hi("h", 1, 2, 4, 8, 8),
                  McTask::lo("l", 2, period / 2, period, period, period)});
}

AnalysisRequest make_request(std::size_t index, Criticality priority) {
  AnalysisRequest request;
  request.set = indexed_set(index);
  request.speed = 2.0;
  request.priority = priority;
  return request;
}

/// The first 30% of every 100-request window is HI (matches service_load).
Criticality striped_priority(std::size_t index) {
  return index % 100 < 30 ? Criticality::HI : Criticality::LO;
}

struct TraceResult {
  std::string stats_row;
  std::vector<Response> responses;
  std::vector<Criticality> priorities;
};

/// Feeds a whole arrival trace into a paused single-worker server, then
/// releases and drains it: admission sees one deterministic depth sequence.
TraceResult run_paused_trace(std::size_t n, ServerOptions options) {
  options.workers = 1;
  options.start_paused = true;
  if (options.queue_capacity < n + 1) options.queue_capacity = n + 1;
  Expected<AnalysisServer> server_or = AnalysisServer::open(std::move(options));
  EXPECT_TRUE(server_or.is_ok()) << server_or.status().message();
  AnalysisServer& server = server_or.value();

  std::vector<std::future<Response>> futures;
  TraceResult result;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Criticality priority = striped_priority(i);
    result.priorities.push_back(priority);
    futures.push_back(server.submit(i, make_request(i, priority)));
  }
  server.start();
  server.drain();
  for (std::future<Response>& f : futures) result.responses.push_back(f.get());
  result.stats_row = server.stats().csv_row();
  return result;
}

ServerOptions overload_options() {
  ServerOptions options;
  options.admission.hi_enter_depth = 40;
  options.admission.lo_exit_depth = 4;
  return options;
}

TEST(ServiceDeterminismTest, SameTraceYieldsByteIdenticalStats) {
  const TraceResult first = run_paused_trace(120, overload_options());
  const TraceResult second = run_paused_trace(120, overload_options());
  EXPECT_EQ(first.stats_row, second.stats_row)
      << "counters must depend only on the trace, never on timing";
  // And the per-request verdicts agree, not just the aggregates.
  ASSERT_EQ(first.responses.size(), second.responses.size());
  for (std::size_t i = 0; i < first.responses.size(); ++i) {
    EXPECT_EQ(first.responses[i].status.is_ok(), second.responses[i].status.is_ok()) << i;
    EXPECT_EQ(first.responses[i].serialized, second.responses[i].serialized) << i;
    EXPECT_EQ(first.responses[i].degraded, second.responses[i].degraded) << i;
  }
}

TEST(ServiceOverloadTest, ShedsOnlyLoServesHiDegradedAndRecovers) {
  const TraceResult result = run_paused_trace(120, overload_options());

  std::uint64_t hi_shed = 0, lo_shed = 0, hi_degraded = 0;
  for (std::size_t i = 0; i < result.responses.size(); ++i) {
    const Response& response = result.responses[i];
    if (response.status.is_overloaded()) {
      if (result.priorities[i] == Criticality::HI) ++hi_shed;
      else ++lo_shed;
    } else {
      ASSERT_TRUE(response.status.is_ok()) << response.status.message();
      if (response.degraded) {
        EXPECT_EQ(result.priorities[i], Criticality::HI)
            << "only HI requests are served degraded";
        ++hi_degraded;
      }
    }
  }
  EXPECT_EQ(hi_shed, 0u) << "a HI request must NEVER be shed";
  EXPECT_GE(lo_shed, 1u) << "the burst must have shed LO traffic";
  EXPECT_GE(hi_degraded, 1u) << "HI admitted during HI mode is served degraded";

  // The stats row ends with the post-drain mode: recovered to LO.
  EXPECT_NE(result.stats_row.find(",LO"), std::string::npos) << result.stats_row;
}

TEST(ServiceOverloadTest, HiSubmitBlocksForSpaceInsteadOfDropping) {
  // Queue capacity 1 and a slow worker: the second HI submit must block
  // until the worker frees a slot, and both requests must complete.
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.admission.hi_enter_depth = 100;  // shedding is not under test here
  options.fault_hook = [](const AnalysisRequest&, std::uint32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  Expected<AnalysisServer> server_or = AnalysisServer::open(std::move(options));
  ASSERT_TRUE(server_or.is_ok());
  AnalysisServer& server = server_or.value();

  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 4; ++i)
    futures.push_back(server.submit(i, make_request(i, Criticality::HI)));
  server.drain();
  for (std::future<Response>& f : futures) {
    const Response response = f.get();
    EXPECT_TRUE(response.status.is_ok()) << response.status.message();
  }
  EXPECT_EQ(server.stats().completed, 4u);
}

TEST(ServiceRetryTest, TransientFaultsAreRetriedWithCap) {
  ServerOptions options;
  options.workers = 1;
  options.max_attempts = 3;
  std::atomic<std::uint32_t> calls{0};
  options.fault_hook = [&calls](const AnalysisRequest&, std::uint32_t attempt) {
    ++calls;
    if (attempt < 3) throw std::runtime_error("transient");
  };
  Expected<AnalysisServer> server_or = AnalysisServer::open(std::move(options));
  ASSERT_TRUE(server_or.is_ok());
  AnalysisServer& server = server_or.value();

  const Response response = server.submit(0, make_request(0, Criticality::LO)).get();
  EXPECT_TRUE(response.status.is_ok()) << response.status.message();
  EXPECT_EQ(response.attempts, 3u);
  EXPECT_EQ(calls.load(), 3u);
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.retried, 2u);
}

TEST(ServiceRetryTest, ExhaustedAttemptsFailWithTypedError) {
  ServerOptions options;
  options.workers = 1;
  options.max_attempts = 2;
  options.fault_hook = [](const AnalysisRequest&, std::uint32_t) {
    throw std::runtime_error("permanent fault");
  };
  Expected<AnalysisServer> server_or = AnalysisServer::open(std::move(options));
  ASSERT_TRUE(server_or.is_ok());
  AnalysisServer& server = server_or.value();

  const Response response = server.submit(0, make_request(0, Criticality::HI)).get();
  ASSERT_FALSE(response.status.is_ok());
  EXPECT_FALSE(response.status.is_overloaded()) << "failure is not overload";
  EXPECT_NE(response.status.message().find("2 attempt(s)"), std::string::npos)
      << response.status.message();
  EXPECT_NE(response.status.message().find("permanent fault"), std::string::npos);
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST(ServiceDeadlineTest, QueuedRequestsPastDeadlineGetTypedExpiry) {
  ServerOptions options;
  options.workers = 1;
  options.soft_deadline_s = 0.05;
  // The first request occupies the only worker well past everyone's
  // deadline; the queued ones must expire, not wait forever.
  options.fault_hook = [](const AnalysisRequest&, std::uint32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  };
  Expected<AnalysisServer> server_or = AnalysisServer::open(std::move(options));
  ASSERT_TRUE(server_or.is_ok());
  AnalysisServer& server = server_or.value();

  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 4; ++i)
    futures.push_back(server.submit(i, make_request(i, Criticality::LO)));
  server.drain();

  std::uint64_t expired = 0;
  for (std::future<Response>& f : futures) {
    const Response response = f.get();
    if (!response.status.is_ok()) {
      EXPECT_NE(response.status.message().find("deadline"), std::string::npos)
          << response.status.message();
      ++expired;
    }
  }
  EXPECT_GE(expired, 1u);
  EXPECT_EQ(server.stats().deadline_expired, expired);
}

TEST(ServiceStopTest, StopFlagDrainsQueuedRequestsWithStopVerdict) {
  std::atomic<bool> stop{false};
  ServerOptions options;
  options.workers = 1;
  options.start_paused = true;  // nothing is served before the stop lands
  options.stop = &stop;
  Expected<AnalysisServer> server_or = AnalysisServer::open(std::move(options));
  ASSERT_TRUE(server_or.is_ok());
  AnalysisServer& server = server_or.value();

  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 5; ++i)
    futures.push_back(server.submit(i, make_request(i, Criticality::HI)));
  stop.store(true);

  for (std::future<Response>& f : futures) {
    const Response response = f.get();  // resolved by the drain, no start()
    ASSERT_FALSE(response.status.is_ok());
    EXPECT_NE(response.status.message().find("server stopping"), std::string::npos)
        << response.status.message();
  }
  EXPECT_EQ(server.stats().stopped, 5u);

  // Submissions after the stop are refused immediately.
  const Response late = server.submit(99, make_request(99, Criticality::HI)).get();
  EXPECT_FALSE(late.status.is_ok());
  EXPECT_NE(late.status.message().find("refused"), std::string::npos);
}

TEST(ServiceCacheTest, IdenticalRequestsCoalesceToOneAnalysis) {
  ServerOptions options;
  options.workers = 4;
  std::atomic<std::uint32_t> analyses{0};
  options.fault_hook = [&analyses](const AnalysisRequest&, std::uint32_t) {
    ++analyses;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  Expected<AnalysisServer> server_or = AnalysisServer::open(std::move(options));
  ASSERT_TRUE(server_or.is_ok());
  AnalysisServer& server = server_or.value();

  // 8 byte-identical requests racing through 4 workers: single-flight means
  // exactly one analysis; everyone gets the same serialized report.
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 8; ++i)
    futures.push_back(server.submit(i, make_request(0, Criticality::HI)));
  std::string serialized;
  for (std::future<Response>& f : futures) {
    const Response response = f.get();
    ASSERT_TRUE(response.status.is_ok()) << response.status.message();
    if (serialized.empty()) serialized = response.serialized;
    EXPECT_EQ(response.serialized, serialized);
  }
  EXPECT_EQ(analyses.load(), 1u) << "the burst must cost one analysis";
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 7u);
}

TEST(ServiceCacheTest, UnparseableEntryIsRecomputedAndRepaired) {
  const std::string wal = testing::TempDir() + "/service_repair_wal.jsonl";
  std::remove(wal.c_str());
  const AnalysisRequest request = make_request(0, Criticality::HI);
  {
    ResultCache::Options cache_options;
    cache_options.journal_path = wal;
    Expected<ResultCache> cache_or = ResultCache::open(cache_options);
    ASSERT_TRUE(cache_or.is_ok()) << cache_or.status().message();
    ASSERT_TRUE(cache_or.value().lookup_or_begin(cache_key(request)).leader);
    ASSERT_TRUE(cache_or.value().publish(cache_key(request), "not a report").is_ok());
  }

  ServerOptions options;
  options.workers = 1;
  options.cache.journal_path = wal;
  Expected<AnalysisServer> server_or = AnalysisServer::open(std::move(options));
  ASSERT_TRUE(server_or.is_ok()) << server_or.status().message();
  AnalysisServer& server = server_or.value();

  const Response first = server.submit(1, request).get();
  ASSERT_TRUE(first.status.is_ok()) << first.status.message();
  EXPECT_FALSE(first.cache_hit) << "a bad entry is recomputed, never served";
  const Response second = server.submit(2, request).get();
  ASSERT_TRUE(second.status.is_ok()) << second.status.message();
  EXPECT_TRUE(second.cache_hit) << "the recomputed report must replace the bad entry";
  EXPECT_EQ(second.serialized, first.serialized);
  std::remove(wal.c_str());
}

// The soak: a live multi-worker burst with transient faults. Run under TSan
// in CI (the `service` job); the assertion here is the conservation law.
TEST(ServiceSoakTest, BurstLoadConservesEveryRequest) {
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 16;  // small on purpose: full-queue paths fire
  options.admission.hi_enter_depth = 12;
  options.admission.lo_exit_depth = 2;
  options.max_attempts = 2;
  std::atomic<std::uint32_t> ticks{0};
  options.fault_hook = [&ticks](const AnalysisRequest&, std::uint32_t attempt) {
    if (attempt == 1 && ++ticks % 17 == 0) throw std::runtime_error("soak fault");
  };
  Expected<AnalysisServer> server_or = AnalysisServer::open(std::move(options));
  ASSERT_TRUE(server_or.is_ok());
  AnalysisServer& server = server_or.value();

  constexpr std::size_t kRequests = 300;
  std::vector<std::future<Response>> futures;
  std::vector<Criticality> priorities;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const Criticality priority = striped_priority(i);
    priorities.push_back(priority);
    futures.push_back(server.submit(i, make_request(i % 40, priority)));
  }
  server.drain();

  std::uint64_t hi_shed = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const Response response = futures[i].get();
    if (response.status.is_overloaded() && priorities[i] == Criticality::HI) ++hi_shed;
  }
  EXPECT_EQ(hi_shed, 0u);

  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed + stats.failed + stats.shed_lo + stats.deadline_expired +
                stats.stopped,
            stats.submitted)
      << "conservation law violated: " << stats.csv_row();
}

TEST(AdmissionControllerTest, HysteresisBetweenEnterAndExitDepths) {
  AdmissionOptions options;
  options.hi_enter_depth = 10;
  options.lo_exit_depth = 3;
  AdmissionController admission(options);

  EXPECT_EQ(admission.mode(), ServiceMode::kLo);
  EXPECT_TRUE(admission.admit(Criticality::LO, 9).admit);

  // Crossing the high-water mark flips to HI: LO shed, HI degraded.
  const AdmissionDecision at_threshold = admission.admit(Criticality::LO, 10);
  EXPECT_FALSE(at_threshold.admit);
  EXPECT_EQ(at_threshold.mode, ServiceMode::kHi);
  const AdmissionDecision hi = admission.admit(Criticality::HI, 11);
  EXPECT_TRUE(hi.admit);
  EXPECT_TRUE(hi.degrade);

  // Draining to between the marks keeps HI (hysteresis)...
  admission.observe_depth(5);
  EXPECT_EQ(admission.mode(), ServiceMode::kHi);
  // ...and reaching the low-water mark recovers LO.
  admission.observe_depth(3);
  EXPECT_EQ(admission.mode(), ServiceMode::kLo);
  EXPECT_EQ(admission.switches_to_hi(), 1u);
  EXPECT_EQ(admission.switches_to_lo(), 1u);
  const AdmissionDecision after = admission.admit(Criticality::LO, 0);
  EXPECT_TRUE(after.admit);
  EXPECT_FALSE(after.degrade);
}

TEST(AdmissionControllerTest, DegenerateThresholdsAreClamped) {
  AdmissionOptions options;
  options.hi_enter_depth = 0;  // clamped to 1
  options.lo_exit_depth = 99;  // clamped below hi_enter_depth
  AdmissionController admission(options);
  // Depth 1 >= clamped enter threshold: HI mode.
  EXPECT_FALSE(admission.admit(Criticality::LO, 1).admit);
  // Clamped exit (0) still recovers on a fully drained queue.
  admission.observe_depth(0);
  EXPECT_EQ(admission.mode(), ServiceMode::kLo);
}

}  // namespace
}  // namespace rbs::service
