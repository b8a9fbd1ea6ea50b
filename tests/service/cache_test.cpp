// Unit tests for the service result cache: report serialization round trip,
// content-key canonicalization, LRU bounds, single-flight coalescing, and
// WAL warm start / compaction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.hpp"
#include "core/analysis.hpp"
#include "core/task.hpp"
#include "service/cache.hpp"
#include "support/taskset_io.hpp"
#include "support/tolerance.hpp"

namespace rbs::service {
namespace {

AnalysisReport sample_report() {
  AnalysisReport r;
  r.s_min = 1.2500000000000002;  // a value %.17g must round-trip exactly
  r.s_min_exact = false;
  r.s_min_error_bound = 1e-4;
  r.s_min_argmax = 315;
  r.delta_r = 7.0 / 3.0;
  r.delta_r_exact = true;
  r.lo_schedulable = true;
  r.hi_schedulable = true;
  r.system_schedulable = false;
  r.speed = 2.0;
  r.u_lo = 0.6999999999999993;
  r.u_hi = 0.85;
  r.speedup_breakpoints = 1234;
  r.reset_breakpoints = 56;
  r.fused_breakpoints = 78;
  r.lo_breakpoints = 90;
  return r;
}

TaskSet paper_set() {
  return TaskSet({McTask::hi("a", 1, 2, 4, 8, 8), McTask::lo("b", 2, 6, 10, 10, 10)});
}

TEST(ReportSerializationTest, RoundTripsEveryField) {
  const AnalysisReport want = sample_report();
  const std::string line = serialize_report(want);
  const Expected<AnalysisReport> got_or = parse_report(line);
  ASSERT_TRUE(got_or.is_ok()) << got_or.status().message();
  const AnalysisReport& got = got_or.value();

  EXPECT_EQ(got.s_min, want.s_min);  // bitwise: %.17g round trip
  EXPECT_EQ(got.s_min_exact, want.s_min_exact);
  EXPECT_EQ(got.s_min_error_bound, want.s_min_error_bound);
  EXPECT_EQ(got.s_min_argmax, want.s_min_argmax);
  EXPECT_EQ(got.delta_r, want.delta_r);
  EXPECT_EQ(got.delta_r_exact, want.delta_r_exact);
  EXPECT_EQ(got.lo_schedulable, want.lo_schedulable);
  EXPECT_EQ(got.hi_schedulable, want.hi_schedulable);
  EXPECT_EQ(got.system_schedulable, want.system_schedulable);
  EXPECT_EQ(got.speed, want.speed);
  EXPECT_EQ(got.u_lo, want.u_lo);
  EXPECT_EQ(got.u_hi, want.u_hi);
  EXPECT_EQ(got.speedup_breakpoints, want.speedup_breakpoints);
  EXPECT_EQ(got.reset_breakpoints, want.reset_breakpoints);
  EXPECT_EQ(got.fused_breakpoints, want.fused_breakpoints);
  EXPECT_EQ(got.lo_breakpoints, want.lo_breakpoints);
  // And the round trip is a fixed point at the byte level.
  EXPECT_EQ(serialize_report(got), line);
}

TEST(ReportSerializationTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(parse_report("").is_ok());
  EXPECT_FALSE(parse_report("1,2,3").is_ok());
  std::string line = serialize_report(sample_report());
  EXPECT_FALSE(parse_report(line + ",extra").is_ok());
  line[0] = 'x';
  EXPECT_FALSE(parse_report(line).is_ok());
  // Bool fields only accept 0/1.
  std::string bad = serialize_report(sample_report());
  const std::size_t comma = bad.find(',');
  bad.replace(comma + 1, 1, "2");  // s_min_exact = "2"
  EXPECT_FALSE(parse_report(bad).is_ok());
}

TEST(CacheKeyTest, IgnoresNamingOrderAndPriority) {
  AnalysisRequest a;
  a.set = TaskSet({McTask::hi("x", 1, 2, 4, 8, 8), McTask::lo("y", 2, 6, 10, 10, 10)});
  a.speed = 2.0;
  a.priority = Criticality::LO;

  AnalysisRequest b;  // renamed, reordered, different priority
  b.set = TaskSet({McTask::lo("p", 2, 6, 10, 10, 10), McTask::hi("q", 1, 2, 4, 8, 8)});
  b.speed = 2.0;
  b.priority = Criticality::HI;

  EXPECT_EQ(cache_key(a), cache_key(b));
}

TEST(CacheKeyTest, DistinguishesSpeedPartsAndLimits) {
  AnalysisRequest base;
  base.set = paper_set();
  base.speed = 2.0;
  const std::string key = cache_key(base);

  AnalysisRequest speed = base;
  speed.speed = 2.5;
  EXPECT_NE(cache_key(speed), key);

  AnalysisRequest parts = base;
  parts.parts.reset = false;
  EXPECT_NE(cache_key(parts), key);

  AnalysisRequest degraded = base;
  degraded.limits = AnalysisLimits::degraded();
  EXPECT_NE(cache_key(degraded), key)
      << "degraded results must never be served to full-exactness requests";

  // The transition latency is appended only when set.
  AnalysisRequest latency = base;
  latency.latency = 3;
  const std::string latency_key = cache_key(latency);
  EXPECT_NE(latency_key, key) << "a zero-latency report must never answer a latency request";
  EXPECT_EQ(latency_key.rfind(key, 0), 0u);
  latency.latency = 4;
  EXPECT_NE(cache_key(latency), latency_key);
}

TEST(CacheKeyTest, RequestSectionEndsAtRelTolThenLatency) {
  AnalysisRequest request;
  request.set = paper_set();
  request.speed = 2.0;
  // speed ; parts ; max_breakpoints ; rel_tol, after the set.
  const std::string tail = '\x1e' + canonical_double(2.0) + ";111;" +
                           std::to_string(kBreakpointBudget) + ';' +
                           canonical_double(kSpeedTol.relative);
  const std::string key = cache_key(request);
  EXPECT_EQ(key, canonical_task_set(request.set) + tail);
  request.latency = 3;
  EXPECT_EQ(cache_key(request), key + ";3");
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsed) {
  ResultCache::Options options;
  options.capacity = 2;
  Expected<ResultCache> cache_or = ResultCache::open(options);
  ASSERT_TRUE(cache_or.is_ok());
  ResultCache& cache = cache_or.value();

  for (const char* key : {"k1", "k2"}) {
    const ResultCache::Lookup lookup = cache.lookup_or_begin(key);
    ASSERT_TRUE(lookup.leader);
    ASSERT_TRUE(cache.publish(key, std::string("v-") + key).is_ok());
  }
  // Touch k1 so k2 is the eviction victim.
  EXPECT_TRUE(cache.lookup_or_begin("k1").hit);
  ASSERT_TRUE(cache.lookup_or_begin("k3").leader);
  ASSERT_TRUE(cache.publish("k3", "v-k3").is_ok());

  EXPECT_TRUE(cache.lookup_or_begin("k1").hit);
  EXPECT_TRUE(cache.lookup_or_begin("k3").hit);
  const ResultCache::Lookup evicted = cache.lookup_or_begin("k2");
  EXPECT_FALSE(evicted.hit);
  EXPECT_TRUE(evicted.leader);
  cache.abandon("k2");

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCacheTest, SingleFlightCoalescesConcurrentMisses) {
  Expected<ResultCache> cache_or = ResultCache::open({});
  ASSERT_TRUE(cache_or.is_ok());
  ResultCache& cache = cache_or.value();

  const ResultCache::Lookup leader = cache.lookup_or_begin("key");
  ASSERT_TRUE(leader.leader);

  constexpr int kWaiters = 4;
  std::atomic<int> hits{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&cache, &hits] {
      const ResultCache::Lookup lookup = cache.lookup_or_begin("key");
      if (lookup.hit && lookup.value == "value") ++hits;
    });
  }
  // The waiters block until the leader publishes; publish exactly once.
  ASSERT_TRUE(cache.publish("key", "value").is_ok());
  for (std::thread& t : waiters) t.join();

  EXPECT_EQ(hits.load(), kWaiters);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u) << "exactly one computation for the burst";
  EXPECT_EQ(stats.coalesced + stats.hits, static_cast<std::uint64_t>(kWaiters));
}

TEST(ResultCacheTest, AbandonPromotesExactlyOneWaiterToLeader) {
  Expected<ResultCache> cache_or = ResultCache::open({});
  ASSERT_TRUE(cache_or.is_ok());
  ResultCache& cache = cache_or.value();

  ASSERT_TRUE(cache.lookup_or_begin("key").leader);

  std::atomic<int> leaders{0}, waiter_hits{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&cache, &leaders, &waiter_hits] {
      const ResultCache::Lookup lookup = cache.lookup_or_begin("key");
      if (lookup.leader) {
        ++leaders;
        ASSERT_TRUE(cache.publish("key", "recovered").is_ok());
      } else if (lookup.hit) {
        EXPECT_EQ(lookup.value, "recovered");
        ++waiter_hits;
      }
    });
  }
  cache.abandon("key");  // the original computation failed
  for (std::thread& t : waiters) t.join();

  EXPECT_EQ(leaders.load(), 1) << "exactly one waiter retries the computation";
  EXPECT_EQ(waiter_hits.load(), 2);
}

class CacheWalTest : public testing::Test {
 protected:
  std::string wal_path() const {
    return testing::TempDir() + "/cache_wal_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() + ".jsonl";
  }
  void SetUp() override { std::remove(wal_path().c_str()); }

  /// A WAL under `tag` holding one entry opens with no warm entry, and its
  /// key is a miss.
  void expect_opens_fresh(const char* tag) const {
    ResultCache::Options options;
    options.journal_path = wal_path();
    {
      Expected<campaign::JournalWriter> writer = campaign::JournalWriter::create(
          options.journal_path, {0, std::uint64_t{1} << 62, tag});
      ASSERT_TRUE(writer.is_ok()) << writer.status().message();
      ASSERT_TRUE(writer.value()
                      .append({0, 1, campaign::JournalRecord::Kind::kOk, std::string("k\x1fv")})
                      .is_ok());
    }
    Expected<ResultCache> cache_or = ResultCache::open(options);
    ASSERT_TRUE(cache_or.is_ok()) << cache_or.status().message();
    EXPECT_EQ(cache_or.value().stats().warm_entries, 0u);
    ASSERT_TRUE(cache_or.value().lookup_or_begin("k").leader);
    cache_or.value().abandon("k");
  }
};

TEST_F(CacheWalTest, WarmStartReplaysPublishedEntriesByteIdentically) {
  ResultCache::Options options;
  options.journal_path = wal_path();
  const std::string value = serialize_report(sample_report());
  {
    Expected<ResultCache> cache_or = ResultCache::open(options);
    ASSERT_TRUE(cache_or.is_ok()) << cache_or.status().message();
    ResultCache& cache = cache_or.value();
    ASSERT_TRUE(cache.lookup_or_begin("req-a").leader);
    ASSERT_TRUE(cache.publish("req-a", value).is_ok());
    ASSERT_TRUE(cache.lookup_or_begin("req-b").leader);
    ASSERT_TRUE(cache.publish("req-b", "other").is_ok());
  }  // destruction = crash boundary: the WAL is all that survives

  Expected<ResultCache> warm_or = ResultCache::open(options);
  ASSERT_TRUE(warm_or.is_ok()) << warm_or.status().message();
  ResultCache& warm = warm_or.value();
  EXPECT_EQ(warm.stats().warm_entries, 2u);
  const ResultCache::Lookup a = warm.lookup_or_begin("req-a");
  ASSERT_TRUE(a.hit);
  EXPECT_EQ(a.value, value) << "warm-started value must be byte-identical";
  EXPECT_TRUE(warm.lookup_or_begin("req-b").hit);
}

TEST_F(CacheWalTest, ReplayKeepsOnlyLiveEntriesAndCompactsOversizedWals) {
  ResultCache::Options options;
  options.journal_path = wal_path();
  options.capacity = 3;
  {
    Expected<ResultCache> cache_or = ResultCache::open(options);
    ASSERT_TRUE(cache_or.is_ok());
    ResultCache& cache = cache_or.value();
    // 10 publishes against capacity 3: the WAL holds every append (> 2x
    // capacity), the LRU only the last three.
    for (int i = 0; i < 10; ++i) {
      const std::string key = "k" + std::to_string(i);
      ASSERT_TRUE(cache.lookup_or_begin(key).leader);
      ASSERT_TRUE(cache.publish(key, "v" + std::to_string(i)).is_ok());
    }
  }

  {
    Expected<ResultCache> warm_or = ResultCache::open(options);
    ASSERT_TRUE(warm_or.is_ok()) << warm_or.status().message();
    ResultCache& warm = warm_or.value();
    EXPECT_EQ(warm.stats().warm_entries, 3u) << "replay respects the LRU bound";
    EXPECT_TRUE(warm.lookup_or_begin("k9").hit);
    EXPECT_TRUE(warm.lookup_or_begin("k8").hit);
    EXPECT_TRUE(warm.lookup_or_begin("k7").hit);
    const ResultCache::Lookup old = warm.lookup_or_begin("k0");
    EXPECT_FALSE(old.hit);
    warm.abandon("k0");
  }  // this open compacted the WAL down to the live entries

  // After compaction a further reopen still warm-starts the same entries.
  Expected<ResultCache> again_or = ResultCache::open(options);
  ASSERT_TRUE(again_or.is_ok()) << again_or.status().message();
  EXPECT_EQ(again_or.value().stats().warm_entries, 3u);
  EXPECT_TRUE(again_or.value().lookup_or_begin("k9").hit);
}

TEST_F(CacheWalTest, CompactionIsByteIdenticalAcrossRuns) {
  // The determinism gate for the cache: compaction decides which entries
  // survive and in what WAL order by walking the recency list, never a
  // hash-ordered index, so two opens of the same oversized journal must
  // write byte-identical compacted WALs (docs/static-analysis.md,
  // "Determinism discipline").
  ResultCache::Options options;
  options.journal_path = wal_path();
  options.capacity = 3;
  {
    Expected<ResultCache> cache_or = ResultCache::open(options);
    ASSERT_TRUE(cache_or.is_ok());
    ResultCache& cache = cache_or.value();
    for (int i = 0; i < 12; ++i) {
      const std::string key = "k" + std::to_string(i % 5);  // re-publishes mix recency
      ASSERT_TRUE(cache.lookup_or_begin(key).leader || true);
      ASSERT_TRUE(cache.publish(key, "v" + std::to_string(i)).is_ok());
    }
  }

  const auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string twin_path = wal_path() + ".twin";
  const std::string oversized = read_bytes(options.journal_path);
  ASSERT_FALSE(oversized.empty());
  {
    std::ofstream out(twin_path, std::ios::binary);
    out << oversized;
  }

  // Open both copies: each replay sees > 2x capacity records and compacts.
  { ASSERT_TRUE(ResultCache::open(options).is_ok()); }
  ResultCache::Options twin_options = options;
  twin_options.journal_path = twin_path;
  { ASSERT_TRUE(ResultCache::open(twin_options).is_ok()); }

  const std::string compacted = read_bytes(options.journal_path);
  const std::string twin_compacted = read_bytes(twin_path);
  EXPECT_LT(compacted.size(), oversized.size()) << "compaction did not trigger";
  EXPECT_EQ(compacted, twin_compacted)
      << "compacted WALs must not depend on anything but the recency list";
  std::remove(twin_path.c_str());
}

TEST_F(CacheWalTest, WalOfTheV1KeyFormatOpensFresh) {
  // A v1 WAL holds keys with a field the key no longer has: no request can
  // reach them, so the cache starts fresh instead of replaying them.
  expect_opens_fresh("service-cache-v1");
}

TEST_F(CacheWalTest, WalOfTheV2KeyFormatOpensFresh) {
  // v2 keys still carry the LO-mode speed between the speed and the parts.
  expect_opens_fresh("service-cache-v2");
}

TEST_F(CacheWalTest, CorruptWalIsDiscardedNotFatal) {
  ResultCache::Options options;
  options.journal_path = wal_path();
  {
    std::FILE* f = std::fopen(options.journal_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a journal\n", f);
    std::fclose(f);
  }
  Expected<ResultCache> cache_or = ResultCache::open(options);
  ASSERT_TRUE(cache_or.is_ok()) << "a corrupt WAL costs the warm start, not the server";
  EXPECT_EQ(cache_or.value().stats().warm_entries, 0u);
  // And the fresh WAL works.
  ASSERT_TRUE(cache_or.value().lookup_or_begin("k").leader);
  EXPECT_TRUE(cache_or.value().publish("k", "v").is_ok());
}

}  // namespace
}  // namespace rbs::service
