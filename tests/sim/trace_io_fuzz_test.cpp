// Round-trip and fuzz tests for the JSON trace reader (sim/trace_io.hpp):
// serialize -> parse must be lossless, and truncated or corrupted input must
// come back as a clean Status error, never a crash.
#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "sim/simulate.hpp"

namespace rbs::sim {
namespace {

SimMetrics faulted_run() {
  SimConfig cfg;
  cfg.horizon = 500.0;
  cfg.hi_speed = 2.0;
  cfg.demand.overrun_probability = 0.8;
  cfg.record_trace = true;
  cfg.faults.episodes.resize(2);
  cfg.faults.episodes[0].achieved_speed = 1.5;
  cfg.faults.episodes[1].deny_boost = true;
  cfg.faults.recycle = true;
  cfg.faults.detection_period = 1.0;
  return Simulator().run(table1_base(), cfg).value().metrics;
}

TEST(TraceRoundTripTest, SerializeParseIsLossless) {
  const TaskSet set = table1_base();
  const SimMetrics result = faulted_run();
  ASSERT_FALSE(result.trace.events.empty());
  ASSERT_FALSE(result.trace.jobs.empty());

  const Expected<TraceDocument> parsed = parse_trace_json(trace_to_json(set, result));
  ASSERT_TRUE(parsed.is_ok()) << parsed.error_message();
  const TraceDocument& doc = parsed.value();

  ASSERT_EQ(doc.tasks.size(), set.size());
  for (std::size_t i = 0; i < set.size(); ++i) EXPECT_EQ(doc.tasks[i], set[i].name());

  ASSERT_EQ(doc.trace.segments.size(), result.trace.segments.size());
  for (std::size_t i = 0; i < doc.trace.segments.size(); ++i) {
    const TraceSegment &a = doc.trace.segments[i], &b = result.trace.segments[i];
    EXPECT_EQ(a.start, b.start);  // exact: max_digits10 round-trips doubles
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.task_index, b.task_index);
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.speed, b.speed);
    EXPECT_EQ(a.mode, b.mode);
  }

  ASSERT_EQ(doc.trace.events.size(), result.trace.events.size());
  for (std::size_t i = 0; i < doc.trace.events.size(); ++i) {
    const TraceEvent &a = doc.trace.events[i], &b = result.trace.events[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.task_index, b.task_index);
    EXPECT_EQ(a.job_id, b.job_id);
  }

  ASSERT_EQ(doc.trace.jobs.size(), result.trace.jobs.size());
  for (std::size_t i = 0; i < doc.trace.jobs.size(); ++i) {
    const JobRecord &a = doc.trace.jobs[i], &b = result.trace.jobs[i];
    EXPECT_EQ(a.task_index, b.task_index);
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.release, b.release);
    EXPECT_EQ(a.demand, b.demand);
  }

  EXPECT_EQ(doc.summary.jobs_released, result.jobs_released);
  EXPECT_EQ(doc.summary.jobs_completed, result.jobs_completed);
  EXPECT_EQ(doc.summary.deadline_misses, result.misses.size());
  EXPECT_EQ(doc.summary.mode_switches, result.mode_switches);
  EXPECT_EQ(doc.summary.faults_injected, result.faults_injected);
  EXPECT_EQ(doc.summary.undetected_overruns, result.undetected_overruns);
  EXPECT_EQ(doc.summary.busy_time, result.busy_time);
  EXPECT_EQ(doc.summary.horizon, result.horizon);
}

TEST(TraceRoundTripTest, EscapedTaskNamesSurvive) {
  const TaskSet odd({McTask::lo("we\"ird\\na\nme", 1, 10, 10)});
  SimConfig cfg;
  cfg.horizon = 30.0;
  cfg.record_trace = true;
  const Expected<TraceDocument> parsed =
      parse_trace_json(trace_to_json(odd, Simulator().run(odd, cfg).value().metrics));
  ASSERT_TRUE(parsed.is_ok()) << parsed.error_message();
  EXPECT_EQ(parsed.value().tasks[0], "we\"ird\\na\nme");
}

TEST(TraceFuzzTest, TruncationAlwaysFailsCleanly) {
  const std::string json = trace_to_json(table1_base(), faulted_run());
  // Every strict prefix that cuts real content must parse to an error (the
  // only survivable cuts are inside the trailing whitespace).
  for (std::size_t len = 0; len + 2 < json.size(); len += 7) {
    const Expected<TraceDocument> parsed = parse_trace_json(json.substr(0, len));
    EXPECT_FALSE(parsed.is_ok()) << "prefix of length " << len << " parsed";
    EXPECT_FALSE(parsed.error_message().empty());
  }
  EXPECT_TRUE(parse_trace_json(json).is_ok());
}

TEST(TraceFuzzTest, RandomCorruptionNeverCrashes) {
  const std::string json = trace_to_json(table1_base(), faulted_run());
  Rng rng(2026);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = json;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    }
    // Must return either a clean error or a document -- never crash/throw.
    const Expected<TraceDocument> parsed = parse_trace_json(mutated);
    if (!parsed.is_ok()) EXPECT_FALSE(parsed.error_message().empty());
  }
}

TEST(TraceParseTest, FieldOrderIsIrrelevantAndUnknownFieldsIgnored) {
  const Expected<TraceDocument> parsed = parse_trace_json(
      R"({"future_field": [1, 2, {"x": null}],
          "summary": {"horizon": 10.5, "jobs_released": 3, "novel_counter": 7},
          "events": [{"job": 1, "task": 0, "kind": "release", "time": 0.25}],
          "segments": [],
          "tasks": ["only"]})");
  ASSERT_TRUE(parsed.is_ok()) << parsed.error_message();
  EXPECT_EQ(parsed.value().tasks.size(), 1u);
  ASSERT_EQ(parsed.value().trace.events.size(), 1u);
  EXPECT_EQ(parsed.value().trace.events[0].kind, TraceEvent::Kind::kRelease);
  EXPECT_EQ(parsed.value().trace.events[0].time, 0.25);
  EXPECT_EQ(parsed.value().summary.jobs_released, 3u);
  EXPECT_EQ(parsed.value().summary.horizon, 10.5);
}

TEST(TraceParseTest, StructuralErrorsAreDescriptive) {
  EXPECT_FALSE(parse_trace_json(""));
  EXPECT_FALSE(parse_trace_json("[]"));  // not an object
  EXPECT_FALSE(parse_trace_json("{\"tasks\": 5, \"segments\": [], \"events\": [], "
                                "\"summary\": {}}"));
  const Expected<TraceDocument> bad_kind = parse_trace_json(
      R"({"tasks": [], "segments": [],
          "events": [{"time": 0, "kind": "teleport", "task": 0, "job": 1}],
          "summary": {}})");
  ASSERT_FALSE(bad_kind.is_ok());
  EXPECT_NE(bad_kind.error_message().find("teleport"), std::string::npos);

  const Expected<TraceDocument> bad_mode = parse_trace_json(
      R"({"tasks": [], "events": [],
          "segments": [{"start": 0, "end": 1, "task": 0, "job": 1, "speed": 1, "mode": "XX"}],
          "summary": {}})");
  ASSERT_FALSE(bad_mode.is_ok());
  EXPECT_NE(bad_mode.error_message().find("mode"), std::string::npos);

  EXPECT_FALSE(parse_trace_json("{\"tasks\": []} trailing"));
}

TEST(TraceParseTest, MissingFileIsAnError) {
  const Expected<TraceDocument> missing = read_trace_json_file("/nonexistent/trace.json");
  ASSERT_FALSE(missing.is_ok());
  EXPECT_NE(missing.error_message().find("cannot open"), std::string::npos);
}

TEST(TraceParseTest, EventKindNamesRoundTripThroughParser) {
  for (const TraceEvent::Kind kind :
       {TraceEvent::Kind::kRelease, TraceEvent::Kind::kCompletion,
        TraceEvent::Kind::kOverrunTrigger, TraceEvent::Kind::kModeSwitchHi,
        TraceEvent::Kind::kReset, TraceEvent::Kind::kDeadlineMiss,
        TraceEvent::Kind::kJobAbandoned, TraceEvent::Kind::kBudgetFallback,
        TraceEvent::Kind::kFaultEngaged, TraceEvent::Kind::kThrottleDown,
        TraceEvent::Kind::kUndetectedOverrun}) {
    TraceEvent::Kind back = TraceEvent::Kind::kRelease;
    ASSERT_TRUE(parse_event_kind(to_string(kind), back)) << to_string(kind);
    EXPECT_EQ(back, kind);
  }
  TraceEvent::Kind out = TraceEvent::Kind::kRelease;
  EXPECT_FALSE(parse_event_kind("not-an-event", out));
}

}  // namespace
}  // namespace rbs::sim
