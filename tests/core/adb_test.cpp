// Unit tests for the arrived demand bound (Theorem 4, Eqs. 9-10).
//
// Same running example as dbf_test:
//   tau1 = HI task, C=(2,4), D=(5,10), T=10   => gap = T - D(LO) = 5
//   tau2 = LO task, C=3,     D=T=12           => gap = 12 - 12 = 0... no:
//   gap = T(HI) - D(LO) = 12 - 12 = 0, so the ramp starts immediately.
#include "core/adb.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dbf.hpp"
#include "core/demand_walk.hpp"
#include "core/left_limits.hpp"

namespace rbs {
namespace {

McTask tau1() { return McTask::hi("tau1", 2, 4, 5, 10, 10); }
McTask tau2() { return McTask::lo("tau2", 3, 12, 12); }

TEST(AdbTest, HiTaskGoldenValues) {
  const McTask t = tau1();  // gap = 10 - 5 = 5
  // (q+1)*C(HI) term plus the carry-over ramp r(w').
  EXPECT_EQ(adb_hi(t, 0), 4);    // one full future job counted immediately
  EXPECT_EQ(adb_hi(t, 4), 4);    // w' = -1
  EXPECT_EQ(adb_hi(t, 5), 6);    // w' = 0: jump by C(HI)-C(LO)
  EXPECT_EQ(adb_hi(t, 6), 7);    // ramp
  EXPECT_EQ(adb_hi(t, 7), 8);    // saturated
  EXPECT_EQ(adb_hi(t, 9), 8);
  EXPECT_EQ(adb_hi(t, 10), 8);   // q jumps, ramp resets
  EXPECT_EQ(adb_hi(t, 15), 10);
  EXPECT_EQ(adb_hi(t, 17), 12);
}

TEST(AdbTest, LoTaskGoldenValues) {
  const McTask t = tau2();  // gap = 0: ramp starts at every window boundary
  EXPECT_EQ(adb_hi(t, 0), 3);
  EXPECT_EQ(adb_hi(t, 1), 4);
  EXPECT_EQ(adb_hi(t, 3), 6);
  EXPECT_EQ(adb_hi(t, 4), 6);
  EXPECT_EQ(adb_hi(t, 12), 6);   // q=1, rho=0: 2*C + r(0)=0
  EXPECT_EQ(adb_hi(t, 13), 7);
}

TEST(AdbTest, AdbDominatesDbfHi) {
  // Arrived demand counts one more job than deadline-bounded demand; for the
  // implicit normal form ADB = DBF_HI + C(HI) exactly, in general >=.
  const TaskSet set({tau1(), tau2()});
  for (const McTask& t : set)
    for (Ticks d = 0; d <= 200; ++d) EXPECT_GE(adb_hi(t, d), dbf_hi(t, d)) << "delta=" << d;
}

TEST(AdbTest, DroppedTaskContributesItsCarryOverOnly) {
  const McTask t = McTask::lo_terminated("tau2", 3, 12, 12);
  for (Ticks d : {0, 1, 50, 5000}) {
    EXPECT_EQ(adb_hi(t, d), 3);
    EXPECT_EQ(adb_hi(t, d, /*discard_dropped_carryover=*/true), 0);
  }
}

TEST(AdbTest, PeriodicityShiftProperty) {
  const McTask a = tau1();
  const McTask b = McTask::lo("l", 3, 12, 12, 15, 20);
  for (Ticks d = 0; d <= 150; ++d) {
    EXPECT_EQ(adb_hi(a, d + 10), adb_hi(a, d) + 4);
    EXPECT_EQ(adb_hi(b, d + 20), adb_hi(b, d) + 3);
  }
}

TEST(AdbTest, MonotoneNonDecreasing) {
  for (const McTask& t : {tau1(), tau2(), McTask::lo("l", 3, 12, 12, 15, 20)}) {
    Ticks prev = 0;
    for (Ticks d = 0; d <= 300; ++d) {
      const Ticks v = adb_hi(t, d);
      EXPECT_GE(v, prev) << describe(t) << " delta=" << d;
      prev = v;
    }
  }
}

TEST(AdbTest, LeftLimitNeverExceedsValue) {
  for (const McTask& t : {tau1(), tau2()})
    for (Ticks d = 1; d <= 200; ++d)
      EXPECT_LE(adb_hi_left(t, d), adb_hi(t, d)) << describe(t) << " delta=" << d;
}

TEST(AdbTest, LeftLimitAtWindowBoundaryKeepsOldWindow) {
  const McTask t = tau1();
  // Approaching 10 from the left: q=0, rho->10, w'=5 saturated: 4 + 4 = 8;
  // the right value is also 8 (continuous here because the ramp was full).
  EXPECT_EQ(adb_hi_left(t, 10), 8);
  EXPECT_EQ(adb_hi(t, 10), 8);
  // At the jump of the carry-over residual (w'=0), the left limit is lower.
  EXPECT_EQ(adb_hi_left(t, 5), 4);
  EXPECT_EQ(adb_hi(t, 5), 6);
}

TEST(AdbTest, TotalsSumOverTasks) {
  const TaskSet set({tau1(), tau2()});
  for (Ticks d = 0; d <= 60; ++d)
    EXPECT_EQ(adb_hi_total(set, d), adb_hi(tau1(), d) + adb_hi(tau2(), d));
}

TEST(AdbTest, ImplicitNormalFormIdentity) {
  // For tasks in the Section V normal form, gap == g and thus
  // ADB(delta) == DBF_HI(delta) + C(HI) -- the identity behind Lemma 7.
  const McTask hi = McTask::hi("h", 2, 4, 6, 10, 10);       // D(HI)=T
  const McTask lo = McTask::lo("l", 3, 10, 10, 20, 20);     // T(chi)=D(chi)
  for (const McTask& t : {hi, lo})
    for (Ticks d = 0; d <= 200; ++d)
      EXPECT_EQ(adb_hi(t, d), dbf_hi(t, d) + t.wcet(Mode::HI)) << describe(t) << " d=" << d;
}

TEST(AdbTest, BreakpointsEmptyForDroppedTask) {
  std::vector<TaggedSeq> seqs;
  EXPECT_EQ(adb_hi_breakpoints(McTask::lo_terminated("l", 3, 12, 12), 1u, seqs), 0);
  EXPECT_TRUE(seqs.empty());
  adb_hi_breakpoints(tau1(), 1u, seqs);
  EXPECT_FALSE(seqs.empty());
}

// ---- running totals from the sequences' deltas ---------------------------

/// Sets covering every delta case of append_ramp_family for ADB_HI, whose
/// offset is T(HI) - D(LO); each mixes periods so several tasks share ticks.
std::vector<TaskSet> delta_cases() {
  return {
      // D(LO) = T(HI): offset 0, with C(HI) = C(LO) and C(HI) > C(LO).
      TaskSet({tau2(), McTask::hi("a", 2, 5, 12, 12, 12), tau1()}),
      // offset + C(LO) = T (C(LO) = D(LO)): the ramp ends on the next window.
      TaskSet({McTask::hi("b", 3, 5, 3, 10, 10), McTask::lo("c", 2, 2, 5), tau2()}),
      // C(LO) = D(LO) = T: offset 0 and the ramp spans the window (+1 - 1).
      TaskSet({McTask::lo("d", 4, 4, 4), McTask::hi("e", 6, 6, 6, 6, 6),
               McTask::hi("f", 1, 3, 2, 3, 3)}),
      // Degraded LO service and dropped tasks (constant ADB, no sequences).
      TaskSet({McTask::lo("g", 3, 12, 12, 15, 20), McTask::lo_terminated("h", 3, 12, 12),
               McTask::lo_terminated("i", 1, 2, 5), tau1()}),
      // Many tasks on one period: every tick is shared.
      TaskSet({McTask::hi("j", 1, 3, 4, 10, 10), McTask::hi("k", 2, 4, 5, 10, 10),
               McTask::lo("l", 3, 10, 10), McTask::lo("m", 2, 7, 10, 9, 10),
               McTask::hi("n", 3, 5, 3, 10, 10)}),
  };
}

TEST(AdbDeltaTest, RunningAdbHiMatchesTaskSums) {
  for (const bool discard : {false, true}) {
    for (const TaskSet& set : delta_cases()) {
      SCOPED_TRACE(describe(set[0]) + (discard ? " (discard)" : ""));
      std::vector<TaggedSeq> seqs;
      RunningDemand start;
      start.value = adb_hi_total(set, 0, discard);
      for (const McTask& t : set) start.slope += adb_hi_breakpoints(t, 1u, seqs);
      expect_running_total(
          seqs, start, two_hyperperiods(set),
          [&](Ticks d) { return adb_hi_total(set, d, discard); },
          [&](Ticks d) { return adb_hi_total_left(set, d, discard); });
    }
  }
}

}  // namespace
}  // namespace rbs
