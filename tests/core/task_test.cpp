// Unit tests for the dual-criticality task model (Section II constraints).
#include "core/task.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rbs {
namespace {

McTask valid_hi() { return McTask::hi("h", 2, 4, 5, 10, 10); }
McTask valid_lo() { return McTask::lo("l", 3, 12, 12); }

TEST(McTaskTest, HiFactorySetsBothModes) {
  const McTask t = valid_hi();
  EXPECT_EQ(t.criticality(), Criticality::HI);
  EXPECT_TRUE(t.is_hi());
  EXPECT_EQ(t.wcet(Mode::LO), 2);
  EXPECT_EQ(t.wcet(Mode::HI), 4);
  EXPECT_EQ(t.deadline(Mode::LO), 5);
  EXPECT_EQ(t.deadline(Mode::HI), 10);
  EXPECT_EQ(t.period(Mode::LO), 10);
  EXPECT_EQ(t.period(Mode::HI), 10);
  EXPECT_TRUE(t.validate().empty());
}

TEST(McTaskTest, LoFactoryKeepsServiceByDefault) {
  const McTask t = valid_lo();
  EXPECT_FALSE(t.is_hi());
  EXPECT_EQ(t.deadline(Mode::HI), 12);
  EXPECT_EQ(t.period(Mode::HI), 12);
  EXPECT_FALSE(t.dropped_in_hi());
  EXPECT_TRUE(t.validate().empty());
}

TEST(McTaskTest, LoDegradedService) {
  const McTask t = McTask::lo("l", 3, 10, 10, 15, 20);
  EXPECT_EQ(t.deadline(Mode::HI), 15);
  EXPECT_EQ(t.period(Mode::HI), 20);
  EXPECT_EQ(t.deadline_extension(), 5);
  EXPECT_TRUE(t.validate().empty());
}

TEST(McTaskTest, TerminatedLoTaskIsDropped) {
  const McTask t = McTask::lo_terminated("l", 3, 10, 10);
  EXPECT_TRUE(t.dropped_in_hi());
  EXPECT_EQ(t.utilization(Mode::HI), 0.0);
  EXPECT_GT(t.utilization(Mode::LO), 0.0);
  EXPECT_TRUE(t.validate().empty());
}

TEST(McTaskTest, UtilizationIsWcetOverPeriod) {
  const McTask t = valid_hi();
  EXPECT_DOUBLE_EQ(t.utilization(Mode::LO), 0.2);
  EXPECT_DOUBLE_EQ(t.utilization(Mode::HI), 0.4);
}

TEST(McTaskValidateTest, HiTaskLoDeadlineAboveHiDeadline) {
  const McTask t = McTask::hi("h", 2, 4, 11, 10, 12);
  EXPECT_FALSE(t.validate().empty());
}

TEST(McTaskValidateTest, HiTaskWcetMustNotDecrease) {
  const McTask t = McTask::hi("h", 5, 4, 5, 10, 10);
  EXPECT_FALSE(t.validate().empty());
}

TEST(McTaskValidateTest, ConstrainedDeadlineEnforced) {
  const McTask t = McTask::hi("h", 2, 4, 5, 12, 10);  // D(HI) > T
  EXPECT_FALSE(t.validate().empty());
}

TEST(McTaskValidateTest, WcetMustFitDeadline) {
  const McTask t = McTask::hi("h", 6, 6, 5, 10, 10);  // C(LO) > D(LO)
  EXPECT_FALSE(t.validate().empty());
}

TEST(McTaskValidateTest, ZeroParametersRejected) {
  EXPECT_FALSE(McTask::lo("l", 0, 10, 10).validate().empty());
  EXPECT_FALSE(McTask::lo("l", 1, 0, 10).validate().empty());
}

TEST(McTaskValidateTest, DegradedServiceMustNotImprove) {
  // T(HI) < T(LO) violates Eq. (2).
  const McTask t = McTask::lo("l", 3, 10, 10, 10, 5);
  EXPECT_FALSE(t.validate().empty());
}

TEST(TaskSetTest, ConstructorRejectsInvalidTasks) {
  EXPECT_THROW(TaskSet({McTask::hi("h", 5, 4, 5, 10, 10)}), std::invalid_argument);
}

TEST(TaskSetTest, UtilizationAggregates) {
  const TaskSet set({valid_hi(), valid_lo()});
  EXPECT_DOUBLE_EQ(set.utilization(Criticality::HI, Mode::LO), 0.2);
  EXPECT_DOUBLE_EQ(set.utilization(Criticality::HI, Mode::HI), 0.4);
  EXPECT_DOUBLE_EQ(set.utilization(Criticality::LO, Mode::LO), 0.25);
  EXPECT_DOUBLE_EQ(set.total_utilization(Mode::LO), 0.45);
  EXPECT_EQ(set.total_hi_wcet(), 7);
}

TEST(TaskSetTest, TotalHiWcetExcludesDroppedTasks) {
  const TaskSet set({valid_hi(), McTask::lo_terminated("l", 3, 12, 12)});
  EXPECT_EQ(set.total_hi_wcet(), 4);
}

TEST(TaskSetTest, DescribeMentionsNameAndCriticality) {
  const std::string text = describe(valid_hi());
  EXPECT_NE(text.find("h"), std::string::npos);
  EXPECT_NE(text.find("HI"), std::string::npos);
}

}  // namespace
}  // namespace rbs
