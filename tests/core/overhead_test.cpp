// Tests for runtime-overhead accounting.
#include "core/overhead.hpp"

#include <gtest/gtest.h>

#include "core/edf.hpp"
#include "core/speedup.hpp"
#include "gen/paper_examples.hpp"

namespace rbs {
namespace {

TEST(OverheadTest, ZeroOverheadIsIdentity) {
  const auto inflated = inflate_for_overheads(table1_base(), 0);
  ASSERT_TRUE(inflated.has_value());
  for (std::size_t i = 0; i < inflated->size(); ++i)
    EXPECT_EQ(describe((*inflated)[i]), describe(table1_base()[i]));
}

TEST(OverheadTest, ContextSwitchChargedTwicePerJob) {
  // tau1 C(LO)=3 -> 5 > D(LO)=4: infeasible at this overhead.
  EXPECT_FALSE(inflate_for_overheads(table1_base(), 1).has_value());

  // A roomier set absorbs it.
  const TaskSet roomy({McTask::hi("h", 2, 4, 10, 20, 20), McTask::lo("l", 3, 15, 15)});
  const auto inflated = inflate_for_overheads(roomy, 1);
  ASSERT_TRUE(inflated.has_value());
  EXPECT_EQ((*inflated)[0].wcet(Mode::LO), 4);
  EXPECT_EQ((*inflated)[0].wcet(Mode::HI), 6);
  EXPECT_EQ((*inflated)[1].wcet(Mode::LO), 5);
  EXPECT_EQ((*inflated)[1].wcet(Mode::HI), 5);  // LO tasks keep C(HI)=C(LO)
}

TEST(OverheadTest, OverheadsOnlyIncreaseSpeedup) {
  const TaskSet roomy({McTask::hi("h", 2, 4, 10, 20, 20), McTask::lo("l", 3, 15, 15)});
  const auto inflated = inflate_for_overheads(roomy, 1);
  ASSERT_TRUE(inflated.has_value());
  EXPECT_GE(min_speedup_value(*inflated) + 1e-12, min_speedup_value(roomy));
}

TEST(OverheadTest, TerminatedTaskInflatedToo) {
  const TaskSet set({McTask::lo_terminated("l", 2, 10, 10)});
  const auto inflated = inflate_for_overheads(set, 1);
  ASSERT_TRUE(inflated.has_value());
  EXPECT_EQ((*inflated)[0].wcet(Mode::LO), 4);
  EXPECT_TRUE((*inflated)[0].dropped_in_hi());
}

TEST(MaxContextSwitchTest, RoomySetToleratesSome) {
  const TaskSet roomy({McTask::hi("h", 2, 4, 10, 20, 20), McTask::lo("l", 3, 15, 15)});
  const Ticks tol = max_tolerable_context_switch(roomy, 2.0);
  EXPECT_GT(tol, 0);
  // Feasible at the reported value, infeasible one tick above.
  const auto ok = inflate_for_overheads(roomy, tol);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(system_schedulable(*ok, 2.0));
  const auto bad = inflate_for_overheads(roomy, tol + 1);
  EXPECT_TRUE(!bad.has_value() || !system_schedulable(*bad, 2.0));
}

TEST(MaxContextSwitchTest, InfeasibleBaseGivesMinusOne) {
  const TaskSet bad({McTask::lo("a", 2, 2, 50), McTask::lo("b", 2, 2, 50)});
  EXPECT_EQ(max_tolerable_context_switch(bad, 4.0), -1);
}

TEST(MaxContextSwitchTest, TightSetToleratesNothing) {
  // tau1's C(LO)=3 already fills most of D(LO)=4: one tick of 2*delta
  // overshoots the deadline.
  EXPECT_EQ(max_tolerable_context_switch(table1_base(), 2.0), 0);
}

}  // namespace
}  // namespace rbs
