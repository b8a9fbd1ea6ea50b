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
#include "core/demand_walk.hpp"
#include "core/left_limits.hpp"

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
  const TaggedSeq tagged = dbf_lo_breakpoints(t, 1u);
  const ArithSeq seq = tagged.seq;
  EXPECT_EQ(seq.start, 5);
  EXPECT_EQ(seq.period, 10);
  EXPECT_EQ(tagged.mask, 1u);
  EXPECT_EQ(tagged.jump, 2);  // C(LO)
  EXPECT_EQ(tagged.slope, 0);
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
  std::vector<TaggedSeq> seqs;
  EXPECT_EQ(dbf_hi_breakpoints(t, 1u, seqs), 0);
  EXPECT_TRUE(seqs.empty());
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
    std::vector<TaggedSeq> seqs;
    dbf_hi_breakpoints(t, 0, seqs);
    TaggedBreakpointMerger merger(seqs);
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

// ---- running totals from the sequences' deltas ---------------------------

/// Sets covering every delta case of append_ramp_family, for DBF_HI and
/// DBF_LO; each mixes periods so several tasks share ticks.
std::vector<TaskSet> delta_cases() {
  return {
      // offset g = 0 with C(HI) = C(LO) (LO task, HI task), plus a HI task
      // with g > 0 on a shared period.
      TaskSet({McTask::lo("a", 3, 12, 12), McTask::hi("b", 2, 2, 6, 6, 12), tau1()}),
      // g = 0 with C(HI) > C(LO): DBF_HI(0) > 0 and the ramp starts at 0.
      TaskSet({McTask::hi("c", 2, 5, 8, 8, 12), McTask::lo("d", 1, 4, 6)}),
      // g + C(LO) = T: the ramp ends on the next window start (slope -1).
      TaskSet({McTask::hi("e", 3, 5, 3, 10, 10), McTask::hi("f", 1, 2, 4, 5, 5), tau2()}),
      // C(LO) = D(LO) = T: g = 0 and the ramp spans the window (+1 - 1).
      TaskSet({McTask::lo("g", 4, 4, 4), McTask::hi("h", 5, 5, 5, 5, 5),
               McTask::hi("i", 2, 3, 4, 6, 6)}),
      // Degraded LO service and dropped tasks (no DBF_HI sequences).
      TaskSet({McTask::lo("j", 3, 12, 12, 15, 20), McTask::lo_terminated("k", 3, 12, 12),
               McTask::lo_terminated("l", 1, 2, 5), tau1()}),
      // Many tasks on one period: every tick is shared.
      TaskSet({McTask::hi("m", 1, 3, 4, 10, 10), McTask::hi("n", 2, 4, 5, 10, 10),
               McTask::lo("o", 3, 10, 10), McTask::lo("p", 2, 7, 10, 9, 10),
               McTask::hi("q", 3, 5, 3, 10, 10)}),
  };
}

TEST(DbfDeltaTest, RunningDbfHiMatchesTaskSums) {
  for (const TaskSet& set : delta_cases()) {
    SCOPED_TRACE(describe(set[0]));
    std::vector<TaggedSeq> seqs;
    RunningDemand start;
    start.value = dbf_hi_total(set, 0);
    for (const McTask& t : set) start.slope += dbf_hi_breakpoints(t, 1u, seqs);
    expect_running_total(
        seqs, start, two_hyperperiods(set), [&](Ticks d) { return dbf_hi_total(set, d); },
        [&](Ticks d) {
          Ticks sum = 0;
          for (const McTask& t : set) sum += dbf_hi_left(t, d);
          return sum;
        });
  }
}

TEST(DbfDeltaTest, RunningDbfLoMatchesTaskSums) {
  for (const TaskSet& set : delta_cases()) {
    SCOPED_TRACE(describe(set[0]));
    std::vector<TaggedSeq> seqs;
    for (const McTask& t : set) seqs.push_back(dbf_lo_breakpoints(t, 1u));
    RunningDemand start;
    start.value = dbf_lo_total(set, 0);
    // DBF_LO steps at integer ticks, so its left limit at d is its value at d - 1.
    expect_running_total(
        seqs, start, two_hyperperiods(set), [&](Ticks d) { return dbf_lo_total(set, d); },
        [&](Ticks d) { return dbf_lo_total(set, d - 1); });
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

TEST(BreakpointMergerTest, SharedTickSumsDeltasPerConsumer) {
  // Consumer 0 owns {0, 6, 12, ...} and {12}; consumer 1 owns {0, 4, 8, 12,
  // ...} and {12}; the singleton {12} tagged 3 serves both. At 12 each
  // consumer gets only the deltas of its own sequences.
  TaggedBreakpointMerger merger({{{0, 6}, 1u, 2, 1},
                                 {{12, 0}, 1u, 3, -1},
                                 {{0, 4}, 2u, 5, -1},
                                 {{12, 0}, 2u, 7, 2},
                                 {{12, 0}, 3u, 100, 10}});
  struct Expected {
    Ticks tick;
    unsigned mask;
    Ticks jump0, slope0, jump1, slope1;
  };
  const std::vector<Expected> expected = {{0, 3u, 2, 1, 5, -1},
                                          {4, 2u, 0, 0, 5, -1},
                                          {6, 1u, 2, 1, 0, 0},
                                          {8, 2u, 0, 0, 5, -1},
                                          {12, 3u, 105, 10, 112, 11},
                                          {16, 2u, 0, 0, 5, -1}};
  for (const Expected& e : expected) {
    const auto point = merger.next();
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(point->tick, e.tick);
    EXPECT_EQ(point->mask, e.mask) << "tick " << e.tick;
    EXPECT_EQ(point->delta[0].jump, e.jump0) << "tick " << e.tick;
    EXPECT_EQ(point->delta[0].slope, e.slope0) << "tick " << e.tick;
    EXPECT_EQ(point->delta[1].jump, e.jump1) << "tick " << e.tick;
    EXPECT_EQ(point->delta[1].slope, e.slope1) << "tick " << e.tick;
  }
}

}  // namespace
}  // namespace rbs
