// One unit test per typed rejection of the simulation facade's input
// validation (validate_config / validate_limits): every malformed field --
// NaN, infinity, wrong sign, out-of-range probability, ill-formed script,
// zero budget -- must come back as a Status error through Simulator::run(),
// never as an exception or an entered event loop.
#include <gtest/gtest.h>

#include <limits>

#include "sim/config.hpp"
#include "sim/simulate.hpp"

namespace rbs::sim {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TaskSet two_tasks() {
  return TaskSet({McTask::hi("h", 2, 6, 8, 20, 20), McTask::lo("l", 3, 15, 15)});
}

/// The config must be rejected by the facade with a message mentioning the
/// offending field.
void expect_rejected(const SimConfig& cfg, const std::string& field) {
  const TaskSet set = two_tasks();
  Simulator simulator;
  const Expected<SimReport> report = simulator.run(set, cfg);
  ASSERT_FALSE(report.is_ok()) << "expected rejection for " << field;
  EXPECT_NE(report.error_message().find(field), std::string::npos)
      << "error was: " << report.error_message();
}

TEST(SimConfigValidationTest, RejectsNaNHorizon) {
  SimConfig cfg;
  cfg.horizon = kNaN;
  expect_rejected(cfg, "horizon");
}

TEST(SimConfigValidationTest, RejectsNegativeHorizon) {
  SimConfig cfg;
  cfg.horizon = -10.0;
  expect_rejected(cfg, "horizon");
}

TEST(SimConfigValidationTest, RejectsZeroHorizon) {
  SimConfig cfg;
  cfg.horizon = 0.0;
  expect_rejected(cfg, "horizon");
}

TEST(SimConfigValidationTest, RejectsInfiniteHorizon) {
  SimConfig cfg;
  cfg.horizon = kInf;
  expect_rejected(cfg, "horizon");
}

TEST(SimConfigValidationTest, RejectsNonPositiveHiSpeed) {
  SimConfig cfg;
  cfg.hi_speed = -1.0;
  expect_rejected(cfg, "hi_speed");
}

TEST(SimConfigValidationTest, RejectsNegativeSpeedChangeLatency) {
  SimConfig cfg;
  cfg.speed_change_latency = -0.5;
  expect_rejected(cfg, "speed_change_latency");
}

TEST(SimConfigValidationTest, RejectsNaNSpeedChangeLatency) {
  SimConfig cfg;
  cfg.speed_change_latency = kNaN;
  expect_rejected(cfg, "speed_change_latency");
}

TEST(SimConfigValidationTest, RejectsNegativeReleaseJitter) {
  SimConfig cfg;
  cfg.release_jitter = -0.1;
  expect_rejected(cfg, "release_jitter");
}

TEST(SimConfigValidationTest, RejectsNaNReleaseJitter) {
  SimConfig cfg;
  cfg.release_jitter = kNaN;
  expect_rejected(cfg, "release_jitter");
}

TEST(SimConfigValidationTest, RejectsNegativeOverrunSeparation) {
  SimConfig cfg;
  cfg.min_overrun_separation = -1.0;
  expect_rejected(cfg, "min_overrun_separation");
}

TEST(SimConfigValidationTest, RejectsNegativeOffsetSpread) {
  SimConfig cfg;
  cfg.initial_offset_spread = -0.2;
  expect_rejected(cfg, "initial_offset_spread");
}

TEST(SimConfigValidationTest, RejectsNegativeMaxBoostDuration) {
  SimConfig cfg;
  cfg.max_boost_duration = -5.0;
  expect_rejected(cfg, "max_boost_duration");
}

TEST(SimConfigValidationTest, RejectsOverrunProbabilityAboveOne) {
  SimConfig cfg;
  cfg.demand.overrun_probability = 1.5;
  expect_rejected(cfg, "overrun_probability");
}

TEST(SimConfigValidationTest, RejectsNegativeOverrunProbability) {
  SimConfig cfg;
  cfg.demand.overrun_probability = -0.1;
  expect_rejected(cfg, "overrun_probability");
}

TEST(SimConfigValidationTest, RejectsNaNBaseFraction) {
  SimConfig cfg;
  cfg.demand.base_fraction_min = kNaN;
  expect_rejected(cfg, "base fractions");
}

TEST(SimConfigValidationTest, RejectsNegativeBaseFraction) {
  SimConfig cfg;
  cfg.demand.base_fraction_max = -1.0;
  expect_rejected(cfg, "base fractions");
}

TEST(SimConfigValidationTest, RejectsScriptSizeMismatch) {
  SimConfig cfg;
  cfg.scripted_arrivals = {{{0.0, 1.0}}};  // one script for two tasks
  expect_rejected(cfg, "scripted_arrivals");
}

TEST(SimConfigValidationTest, RejectsScriptWithNegativeRelease) {
  SimConfig cfg;
  cfg.scripted_arrivals = {{{-1.0, 1.0}}, {}};
  expect_rejected(cfg, "scripted release");
}

TEST(SimConfigValidationTest, RejectsScriptWithNonPositiveDemand) {
  SimConfig cfg;
  cfg.scripted_arrivals = {{{0.0, 0.0}}, {}};
  expect_rejected(cfg, "scripted demand");
}

TEST(SimConfigValidationTest, RejectsScriptWithDecreasingReleases) {
  SimConfig cfg;
  cfg.scripted_arrivals = {{{10.0, 1.0}, {5.0, 1.0}}, {}};
  expect_rejected(cfg, "non-decreasing");
}

TEST(SimConfigValidationTest, RejectsInvalidFaultPlan) {
  SimConfig cfg;
  cfg.faults.episodes.resize(2);
  cfg.faults.episodes[1].extra_latency = -1.0;
  // validate_config forwards the fault plan's own error.
  const Status status = validate_config(two_tasks(), cfg);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.message(), "faults: episode 1: extra_latency must be finite and >= 0");
  expect_rejected(cfg, "faults: episode 1");
}

TEST(SimLimitsValidationTest, RejectsZeroEventBudget) {
  SimConfig cfg;
  SimLimits limits;
  limits.max_events = 0;
  Simulator simulator;
  const Expected<SimReport> report = simulator.run(two_tasks(), cfg, limits);
  ASSERT_FALSE(report.is_ok());
  EXPECT_NE(report.error_message().find("max_events"), std::string::npos);
}

TEST(SimLimitsValidationTest, RejectsZeroJobBudget) {
  SimConfig cfg;
  SimLimits limits;
  limits.max_jobs = 0;
  Simulator simulator;
  const Expected<SimReport> report = simulator.run(two_tasks(), cfg, limits);
  ASSERT_FALSE(report.is_ok());
  EXPECT_NE(report.error_message().find("max_jobs"), std::string::npos);
}

}  // namespace
}  // namespace rbs::sim
