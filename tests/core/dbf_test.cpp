// Unit tests for the demand bound functions (Eq. 4 and Lemma 1).
//
// Golden values are hand-computed for the running example
//   tau1 = HI task, C=(2,4), D=(5,10), T=10
//   tau2 = LO task, C=3,     D=T=12 (no degradation)
#include "core/dbf.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/breakpoints.hpp"

namespace rbs {
namespace {

McTask tau1() { return McTask::hi("tau1", 2, 4, 5, 10, 10); }
McTask tau2() { return McTask::lo("tau2", 3, 12, 12); }

/// `seqs` for a single-consumer walk (mask 0).
std::vector<TaggedSeq> untagged(const std::vector<ArithSeq>& seqs) {
  std::vector<TaggedSeq> tagged;
  for (const ArithSeq& s : seqs) tagged.push_back({s, 0});
  return tagged;
}

// ---- dbf_lo (Eq. 4) ------------------------------------------------------

TEST(DbfLoTest, ZeroBeforeFirstDeadline) {
  const McTask t = tau1();
  for (Ticks d = 0; d < 5; ++d) EXPECT_EQ(dbf_lo(t, d), 0) << "delta=" << d;
}

TEST(DbfLoTest, StepsAtDeadlinePlusPeriods) {
  const McTask t = tau1();
  EXPECT_EQ(dbf_lo(t, 5), 2);
  EXPECT_EQ(dbf_lo(t, 14), 2);
  EXPECT_EQ(dbf_lo(t, 15), 4);
  EXPECT_EQ(dbf_lo(t, 24), 4);
  EXPECT_EQ(dbf_lo(t, 25), 6);
}

TEST(DbfLoTest, UsesLoModeWcet) {
  // dbf_lo of a HI task counts C(LO), not C(HI).
  EXPECT_EQ(dbf_lo(tau1(), 100), 2 * (static_cast<Ticks>((100 - 5) / 10) + 1));
}

TEST(DbfLoTest, ImplicitDeadlineTask) {
  const McTask t = tau2();
  EXPECT_EQ(dbf_lo(t, 11), 0);
  EXPECT_EQ(dbf_lo(t, 12), 3);
  EXPECT_EQ(dbf_lo(t, 23), 3);
  EXPECT_EQ(dbf_lo(t, 24), 6);
}

TEST(DbfLoTest, MonotoneNonDecreasing) {
  const McTask t = tau1();
  Ticks prev = 0;
  for (Ticks d = 0; d <= 200; ++d) {
    const Ticks v = dbf_lo(t, d);
    EXPECT_GE(v, prev) << "delta=" << d;
    prev = v;
  }
}

TEST(DbfLoTest, BreakpointSequenceMatchesJumps) {
  const McTask t = tau1();
  const ArithSeq seq = dbf_lo_breakpoints(t);
  EXPECT_EQ(seq.start, 5);
  EXPECT_EQ(seq.period, 10);
  // Jumps happen exactly at the sequence points.
  for (Ticks d = 1; d <= 100; ++d) {
    const bool jumped = dbf_lo(t, d) != dbf_lo(t, d - 1);
    const bool on_seq = (d >= seq.start) && ((d - seq.start) % seq.period == 0);
    EXPECT_EQ(jumped, on_seq) << "delta=" << d;
  }
}

// ---- dbf_hi (Lemma 1) ----------------------------------------------------

TEST(DbfHiTest, HiTaskGoldenValues) {
  const McTask t = tau1();  // g = D(HI)-D(LO) = 5
  EXPECT_EQ(dbf_hi(t, 0), 0);
  EXPECT_EQ(dbf_hi(t, 4), 0);   // w = -1
  EXPECT_EQ(dbf_hi(t, 5), 2);   // w = 0: C(HI)-C(LO)
  EXPECT_EQ(dbf_hi(t, 6), 3);   // ramp
  EXPECT_EQ(dbf_hi(t, 7), 4);   // ramp saturates at C(LO)
  EXPECT_EQ(dbf_hi(t, 8), 4);
  EXPECT_EQ(dbf_hi(t, 9), 4);
  EXPECT_EQ(dbf_hi(t, 10), 4);  // full-job term takes over
  EXPECT_EQ(dbf_hi(t, 14), 4);
  EXPECT_EQ(dbf_hi(t, 15), 6);
  EXPECT_EQ(dbf_hi(t, 17), 8);
  EXPECT_EQ(dbf_hi(t, 20), 8);
}

TEST(DbfHiTest, LoTaskWithoutDegradationRampsImmediately) {
  const McTask t = tau2();  // g = 0
  EXPECT_EQ(dbf_hi(t, 0), 0);
  EXPECT_EQ(dbf_hi(t, 1), 1);
  EXPECT_EQ(dbf_hi(t, 2), 2);
  EXPECT_EQ(dbf_hi(t, 3), 3);
  EXPECT_EQ(dbf_hi(t, 4), 3);
  EXPECT_EQ(dbf_hi(t, 12), 3);
  EXPECT_EQ(dbf_hi(t, 13), 4);
  EXPECT_EQ(dbf_hi(t, 15), 6);
}

TEST(DbfHiTest, DegradedLoTaskShiftsRamp) {
  // Degraded to D(HI)=15, T(HI)=20: g = 3.
  const McTask t = McTask::lo("tau2", 3, 12, 12, 15, 20);
  EXPECT_EQ(dbf_hi(t, 0), 0);
  EXPECT_EQ(dbf_hi(t, 3), 0);  // w = 0, C(HI)=C(LO) so the jump is 0
  EXPECT_EQ(dbf_hi(t, 4), 1);
  EXPECT_EQ(dbf_hi(t, 6), 3);
  EXPECT_EQ(dbf_hi(t, 7), 3);
  EXPECT_EQ(dbf_hi(t, 20), 3);  // q=1, rho=0
  EXPECT_EQ(dbf_hi(t, 24), 4);
}

TEST(DbfHiTest, DroppedTaskHasNoHiDemand) {
  const McTask t = McTask::lo_terminated("tau2", 3, 12, 12);
  for (Ticks d : {0, 1, 5, 100, 10000}) EXPECT_EQ(dbf_hi(t, d), 0);
}

TEST(DbfHiTest, UnpreparedHiTaskDemandsAtZero) {
  // D(LO) == D(HI): the carry-over residual C(HI)-C(LO) is due immediately,
  // which is what makes s_min infinite (discussion after Theorem 2).
  const McTask t = McTask::hi("t", 2, 4, 10, 10, 10);
  EXPECT_EQ(dbf_hi(t, 0), 2);
}

TEST(DbfHiTest, LeftLimitAtJumpAndRamp) {
  const McTask t = tau1();
  EXPECT_EQ(dbf_hi_left(t, 5), 0);   // jump of C(HI)-C(LO)=2 at w=0
  EXPECT_EQ(dbf_hi_left(t, 6), 3);   // ramp is continuous
  EXPECT_EQ(dbf_hi_left(t, 7), 4);
  EXPECT_EQ(dbf_hi_left(t, 10), 4);  // window boundary: continuous here
  EXPECT_EQ(dbf_hi_left(t, 15), 4);  // jump of 2 at 15
}

TEST(DbfHiTest, LeftLimitOfLoTaskAtWindowBoundary) {
  const McTask t = tau2();
  // At delta=12 the q-term jumps by C while the ramp resets from C: the
  // function is continuous there (3 -> 3) and immediately ramps again, so the
  // left limit at 13 is 4.
  EXPECT_EQ(dbf_hi_left(t, 12), 3);
  EXPECT_EQ(dbf_hi(t, 12), 3);
  EXPECT_EQ(dbf_hi_left(t, 13), 4);
}

TEST(DbfHiTest, PeriodicityShiftProperty) {
  // DBF_HI(delta + T(HI)) = DBF_HI(delta) + C(HI) -- the periodicity that
  // underpins the pseudo-polynomial bound.
  const McTask a = tau1();
  const McTask b = McTask::lo("l", 3, 12, 12, 15, 20);
  for (Ticks d = 0; d <= 200; ++d) {
    EXPECT_EQ(dbf_hi(a, d + 10), dbf_hi(a, d) + 4);
    EXPECT_EQ(dbf_hi(b, d + 20), dbf_hi(b, d) + 3);
  }
}

TEST(DbfHiTest, MonotoneNonDecreasing) {
  for (const McTask& t : {tau1(), tau2(), McTask::lo("l", 3, 12, 12, 15, 20)}) {
    Ticks prev = 0;
    for (Ticks d = 0; d <= 300; ++d) {
      const Ticks v = dbf_hi(t, d);
      EXPECT_GE(v, prev) << describe(t) << " delta=" << d;
      prev = v;
    }
  }
}

TEST(DbfHiTest, MorePreparationNeverIncreasesHiDemand) {
  // Shrinking D(LO) of a HI task (more overrun preparation) weakly decreases
  // DBF_HI pointwise.
  for (Ticks d_lo = 2; d_lo <= 9; ++d_lo) {
    const McTask more = McTask::hi("m", 2, 4, d_lo - 1, 10, 10);
    const McTask less = McTask::hi("l", 2, 4, d_lo, 10, 10);
    for (Ticks d = 0; d <= 100; ++d)
      EXPECT_LE(dbf_hi(more, d), dbf_hi(less, d)) << "d_lo=" << d_lo << " delta=" << d;
  }
}

TEST(DbfHiTest, LeftLimitNeverExceedsRightValueAtJumpPoints) {
  // The demand function only jumps upward.
  for (const McTask& t : {tau1(), tau2()}) {
    for (Ticks d = 1; d <= 200; ++d)
      EXPECT_LE(dbf_hi_left(t, d), dbf_hi(t, d)) << describe(t) << " delta=" << d;
  }
}

TEST(DbfHiTest, TotalsSumOverTasks) {
  const TaskSet set({tau1(), tau2()});
  for (Ticks d = 0; d <= 50; ++d) {
    EXPECT_EQ(dbf_hi_total(set, d), dbf_hi(tau1(), d) + dbf_hi(tau2(), d));
    EXPECT_EQ(dbf_lo_total(set, d), dbf_lo(tau1(), d) + dbf_lo(tau2(), d));
  }
}

TEST(DbfHiTest, BreakpointsCoverAllSlopeChanges) {
  // Between consecutive breakpoints the function must be exactly linear.
  for (const McTask& t : {tau1(), McTask::lo("l", 5, 17, 17, 23, 29)}) {
    TaggedBreakpointMerger merger(untagged(dbf_hi_breakpoints(t)));
    Ticks prev = merger.next()->tick;
    while (true) {
      const auto point = merger.next();
      ASSERT_TRUE(point.has_value());
      const Ticks next = point->tick;
      if (next > 300) break;
      // Linear on [prev, next): check via second differences on the interior.
      for (Ticks d = prev + 2; d < next; ++d) {
        const Ticks second_diff = dbf_hi(t, d) - 2 * dbf_hi(t, d - 1) + dbf_hi(t, d - 2);
        EXPECT_EQ(second_diff, 0) << describe(t) << " delta=" << d;
      }
      // And continuous in the interior (left limit == value).
      for (Ticks d = prev + 1; d < next; ++d)
        EXPECT_EQ(dbf_hi_left(t, d), dbf_hi(t, d)) << describe(t) << " delta=" << d;
      prev = next;
    }
  }
}

/// The next `count` ticks of a merger, in order.
std::vector<Ticks> drain(TaggedBreakpointMerger& merger, std::size_t count) {
  std::vector<Ticks> ticks;
  while (ticks.size() < count) {
    const auto point = merger.next();
    if (!point) break;
    ticks.push_back(point->tick);
  }
  return ticks;
}

TEST(BreakpointMergerTest, MergesAndDeduplicates) {
  TaggedBreakpointMerger merger(untagged({{0, 10}, {5, 10}, {0, 4}}));
  EXPECT_EQ(drain(merger, 8), (std::vector<Ticks>{0, 4, 5, 8, 10, 12, 15, 16}));
}

TEST(BreakpointMergerTest, SingletonSequencesExhaust) {
  TaggedBreakpointMerger merger(untagged({{3, 0}, {1, 0}, {3, 0}}));
  EXPECT_EQ(drain(merger, 3), (std::vector<Ticks>{1, 3}));
  EXPECT_FALSE(merger.next().has_value());
}

TEST(BreakpointMergerTest, InfiniteStartsAreIgnored) {
  TaggedBreakpointMerger merger(untagged({{kInfTicks, 10}, {2, 0}}));
  EXPECT_EQ(drain(merger, 2), (std::vector<Ticks>{2}));
}

TEST(BreakpointMergerTest, SharedTickCarriesUnionOfMasks) {
  // {0, 6, 12, ...} tagged 1 and {0, 4, 8, 12, ...} tagged 2 meet at 0 and
  // 12: those ticks come out once, tagged 3.
  TaggedBreakpointMerger merger({{{0, 6}, 1u}, {{0, 4}, 2u}});
  const std::vector<std::pair<Ticks, unsigned>> expected = {
      {0, 3u}, {4, 2u}, {6, 1u}, {8, 2u}, {12, 3u}, {16, 2u}, {18, 1u}};
  for (const auto& [tick, mask] : expected) {
    const auto point = merger.next();
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(point->tick, tick);
    EXPECT_EQ(point->mask, mask) << "tick " << tick;
  }
}

}  // namespace
}  // namespace rbs
