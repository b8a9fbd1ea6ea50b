// Tests for the recoverable-error plumbing: Status/Expected themselves, the
// non-throwing TaskSet factory, degenerate-input rejection in taskset_io,
// and the checked CLI getters.
#include "support/status.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <variant>

#include "core/task.hpp"
#include "support/cli.hpp"
#include "support/taskset_io.hpp"

namespace rbs {
namespace {

TEST(StatusTest, OkAndErrorSemantics) {
  const Status ok = Status::ok();
  EXPECT_TRUE(ok.is_ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_TRUE(ok.message().empty());

  const Status err = Status::error("broken");
  EXPECT_FALSE(err.is_ok());
  EXPECT_FALSE(static_cast<bool>(err));
  EXPECT_EQ(err.message(), "broken");

  EXPECT_TRUE(Status().is_ok());  // default-constructed is ok
}

TEST(ExpectedTest, ValueAndErrorPaths) {
  const Expected<int> good = 42;
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.value_or(-1), 42);
  EXPECT_TRUE(good.error_message().empty());

  const Expected<int> bad = Status::error("nope");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_FALSE(static_cast<bool>(bad));
  EXPECT_EQ(bad.error_message(), "nope");
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(static_cast<void>(bad.value()), std::logic_error);
}

TEST(ExpectedTest, MoveOutOfValue) {
  Expected<std::string> s = std::string("payload");
  const std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "payload");
}

TEST(TaskSetCreateTest, ValidTasksSucceed) {
  const Expected<TaskSet> set = TaskSet::create({
      McTask::hi("h", 3, 5, 4, 7, 7),
      McTask::lo("l", 2, 5, 15),
  });
  ASSERT_TRUE(set.is_ok());
  EXPECT_EQ(set.value().size(), 2u);
}

TEST(TaskSetCreateTest, ConstraintViolationsBecomeErrors) {
  // C(HI) < C(LO) on a HI task violates Eq. 1.
  const Expected<TaskSet> bad = TaskSet::create({McTask::hi("h", 5, 3, 4, 7, 7)});
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.error_message().find("h"), std::string::npos);
  EXPECT_NE(bad.error_message().find("C(HI) >= C(LO)"), std::string::npos);

  // Zero WCET.
  EXPECT_FALSE(TaskSet::create({McTask::lo("z", 0, 5, 5)}));
  // D > T (unconstrained deadline).
  EXPECT_FALSE(TaskSet::create({McTask::lo("d", 1, 9, 5)}));
}

// ---- degenerate-input rejection at load time ------------------------------

std::variant<TaskSet, ParseError> load(const std::string& text) {
  std::istringstream in(text);
  return read_task_set(in);
}

/// The parser's error on `text`; fails the test when it parsed.
ParseError load_error(const std::string& text) {
  const std::variant<TaskSet, ParseError> parsed = load(text);
  EXPECT_TRUE(std::holds_alternative<ParseError>(parsed)) << text;
  const ParseError* err = std::get_if<ParseError>(&parsed);
  return err ? *err : ParseError{};
}

TEST(TasksetLoadTest, ValidFileRoundTrips) {
  const std::variant<TaskSet, ParseError> parsed = load(
      "# name, crit, C(LO), C(HI), D(LO), D(HI), T(LO), T(HI)\n"
      "guidance, HI, 5, 10, 50, 100, 100, 100\n"
      "logging,  LO, 50, 50, 1000, inf, 1000, inf\n");
  const TaskSet* set = std::get_if<TaskSet>(&parsed);
  ASSERT_NE(set, nullptr) << std::get<ParseError>(parsed).message;
  EXPECT_EQ(set->size(), 2u);
  EXPECT_TRUE((*set)[1].dropped_in_hi());
}

TEST(TasksetLoadTest, RejectsDegenerateParameters) {
  // Negative C.
  load_error("t, HI, -5, 10, 50, 100, 100, 100\n");
  // NaN is not a tick count.
  load_error("t, HI, nan, 10, 50, 100, 100, 100\n");
  // C(HI) < C(LO).
  load_error("t, HI, 10, 5, 50, 100, 100, 100\n");
  // D > T.
  load_error("t, LO, 5, 5, 200, 200, 100, 100\n");
  // Zero period.
  load_error("t, LO, 5, 5, 50, 50, 0, 0\n");
  // C > D.
  load_error("t, HI, 60, 60, 50, 100, 100, 100\n");
}

TEST(TasksetLoadTest, ErrorsCarryLineNumbers) {
  const ParseError bad = load_error(
      "ok, HI, 5, 10, 50, 100, 100, 100\n"
      "broken, HI, 5, 10\n");
  EXPECT_EQ(bad.line, 2);
}

TEST(TasksetLoadTest, RejectsDuplicateNames) {
  const ParseError bad = load_error(
      "twin, HI, 5, 10, 50, 100, 100, 100\n"
      "twin, LO, 5, 5, 50, 50, 100, 100\n");
  EXPECT_NE(bad.message.find("duplicate"), std::string::npos);
}

TEST(TasksetLoadTest, MissingFileIsAnError) {
  const std::variant<TaskSet, ParseError> missing =
      read_task_set_file("/nonexistent/tasks.csv");
  const ParseError* err = std::get_if<ParseError>(&missing);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->message.find("cannot open"), std::string::npos);
}

// ---- checked CLI getters --------------------------------------------------

TEST(CliCheckedTest, ParsesWellFormedValues) {
  const char* argv[] = {"prog", "--rate", "1.5", "--count=42", "--name", "x"};
  const CliArgs args(6, argv);
  EXPECT_DOUBLE_EQ(args.get_double_checked("rate", 0.0).value(), 1.5);
  EXPECT_EQ(args.get_int_checked("count", 0).value(), 42);
  EXPECT_DOUBLE_EQ(args.get_double_checked("absent", 9.5).value(), 9.5);
  EXPECT_EQ(args.get_int_checked("absent", 7).value(), 7);
}

TEST(CliCheckedTest, MalformedValuesAreErrorsNotZero) {
  const char* argv[] = {"prog", "--rate", "fast", "--count", "12monkeys"};
  const CliArgs args(5, argv);
  const Expected<double> rate = args.get_double_checked("rate", 0.0);
  ASSERT_FALSE(rate.is_ok());
  EXPECT_NE(rate.error_message().find("--rate"), std::string::npos);
  EXPECT_FALSE(args.get_int_checked("count", 0).is_ok());
  // The unchecked getters silently coerce -- that contrast is the point.
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.0);
}

}  // namespace
}  // namespace rbs
