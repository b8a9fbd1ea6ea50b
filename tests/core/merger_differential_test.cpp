// Differential suite for the ring merger (core/breakpoints.hpp): it must
// emit the stream of the per-sequence reference merger
// (tests/core/reference_merger.hpp), point for point -- the tick, the mask
// and both consumers' summed jump and slope.
//
// Two input families. Seeded random sequence sets aimed at what the rings
// change: shared periods, equal starts under equal and different masks,
// starts at and above the period, duplicate singletons, mask-0 sequences,
// starts at kInfTicks (dropped tasks) and periods and starts near it. And
// every family the builders make -- dbf_hi_breakpoints, adb_hi_breakpoints
// and dbf_lo_breakpoints, alone and fused, plus the supply kink of the
// latency walk -- for the paper, UUniFast, harmonic-grid, FMS and
// exact-oracle sets.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/adb.hpp"
#include "core/breakpoints.hpp"
#include "core/dbf.hpp"
#include "core/grid_sets.hpp"
#include "core/reference_merger.hpp"
#include "core/tuning.hpp"
#include "gen/fms.hpp"
#include "gen/paper_examples.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace rbs {
namespace {

/// Drains both mergers over `seqs` for up to `max_points` points, or until
/// both run dry, stopping at the first difference.
void expect_same_stream(const std::vector<TaggedSeq>& seqs, std::size_t max_points) {
  TaggedBreakpointMerger ring(seqs);
  reference::SequenceMerger per_sequence(seqs);
  for (std::size_t i = 0; i < max_points; ++i) {
    const auto got = ring.next();
    const auto want = per_sequence.next();
    EXPECT_EQ(got.has_value(), want.has_value()) << "point " << i;
    if (!got || !want) return;
    EXPECT_EQ(got->tick, want->tick) << "point " << i;
    EXPECT_EQ(got->mask, want->mask) << "tick " << want->tick;
    for (unsigned c = 0; c < kMergerConsumers; ++c) {
      EXPECT_EQ(got->delta[c].jump, want->delta[c].jump)
          << "consumer " << c << " tick " << want->tick;
      EXPECT_EQ(got->delta[c].slope, want->delta[c].slope)
          << "consumer " << c << " tick " << want->tick;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// ---- random sequence sets ----------------------------------------------------

/// A seeded set of up to 24 sequences. Periods come from a small pool, so
/// rings form, with some at or near kInfTicks; starts fall below, at and
/// above the period, repeat earlier starts (under any mask), or sit at or
/// near kInfTicks; some sequences are exact duplicates.
std::vector<TaggedSeq> random_seqs(Rng& rng) {
  static constexpr std::array<Ticks, 9> kPeriods = {0, 1, 2, 3, 4, 6, 10, 12, 35};
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  std::vector<TaggedSeq> seqs;
  const auto count = rng.uniform_int(1, 24);
  for (std::int64_t i = 0; i < count; ++i) {
    if (!seqs.empty() && rng.uniform_int(0, 9) == 0) {
      seqs.push_back(seqs[pick(seqs.size())]);  // an exact duplicate
      continue;
    }
    TaggedSeq s;
    switch (rng.uniform_int(0, 19)) {
      case 0: s.seq.period = kInfTicks - rng.uniform_int(1, 40); break;
      case 1: s.seq.period = kInfTicks / 3; break;
      default: s.seq.period = kPeriods[pick(kPeriods.size())];
    }
    const Ticks span = s.seq.period > 0 && s.seq.period < 100 ? 3 * s.seq.period : 100;
    switch (rng.uniform_int(0, 19)) {
      case 0: s.seq.start = kInfTicks + rng.uniform_int(0, 2); break;  // a dropped task
      case 1: s.seq.start = kInfTicks - rng.uniform_int(1, 60); break;
      case 2: s.seq.start = s.seq.period < kInfTicks ? s.seq.period : 0; break;
      case 3:
      case 4:
        s.seq.start = seqs.empty() ? 0 : seqs[pick(seqs.size())].seq.start;
        break;
      default: s.seq.start = rng.uniform_int(0, span);
    }
    s.mask = static_cast<unsigned>(rng.uniform_int(0, 9) == 0 ? rng.uniform_int(0, 7)
                                                               : rng.uniform_int(1, 3));
    s.jump = rng.uniform_int(-5, 9);
    s.slope = rng.uniform_int(-3, 3);
    seqs.push_back(s);
  }
  return seqs;
}

TEST(MergerDifferentialTest, RandomSequenceSets) {
  Rng rng(1907);
  for (int round = 0; round < 3000; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    expect_same_stream(random_seqs(rng), 400);
    if (HasFailure()) return;
  }
}

TEST(MergerDifferentialTest, EdgeCases) {
  const std::vector<std::vector<TaggedSeq>> cases = {
      {},
      // Equal starts under equal and different masks, and DBF_LO with D = T.
      {{{0, 6}, 1u, 2, 1}, {{0, 6}, 1u, 3, -1}, {{0, 6}, 2u, 5, 0}, {{6, 6}, 1u, 7, 0}},
      // A start above the period, and one a whole period above another.
      {{{3, 5}, 1u, 1, 0}, {{13, 5}, 1u, 2, 0}, {{8, 5}, 1u, 4, 0}},
      // Duplicate singletons, a mask-0 singleton (the latency supply kink).
      {{{4, 0}, 1u, 1, 1}, {{4, 0}, 1u, 1, 1}, {{4, 0}, 0u, 0, 0}, {{9, 0}, 2u, 3, 0}},
      // Periods and starts at the kInfTicks cut-off.
      {{{kInfTicks - 1, 0}, 1u, 1, 0},
       {{kInfTicks, 3}, 1u, 1, 0},
       {{2, kInfTicks - 1}, 1u, 1, 0},
       {{0, kInfTicks - 1}, 1u, 2, 0},
       {{kInfTicks - 5, 2}, 2u, 1, 0},
       {{kInfTicks - 4, 2}, 2u, 1, 0}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    expect_same_stream(cases[i], 200);
  }
}

// ---- the builders' families on generated sets ------------------------------

/// Sequence families of one set, the way the walks build them.
std::vector<std::vector<TaggedSeq>> families(const TaskSet& set) {
  std::vector<TaggedSeq> dbf_hi, adb_hi, fused, lo, latency;
  for (const McTask& t : set) {
    dbf_hi_breakpoints(t, 1u, dbf_hi);
    adb_hi_breakpoints(t, 1u, adb_hi);
    dbf_hi_breakpoints(t, 1u, fused);
    lo.push_back(dbf_lo_breakpoints(t, 1u));
  }
  for (const McTask& t : set) adb_hi_breakpoints(t, 2u, fused);
  latency = adb_hi;
  latency.push_back({{7, 0}, 0});
  return {dbf_hi, adb_hi, fused, lo, latency};
}

void expect_same_families(const std::vector<TaskSet>& sets, std::size_t min_sets) {
  ASSERT_GE(sets.size(), min_sets);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::vector<std::vector<TaggedSeq>> all = families(sets[i]);
    for (std::size_t f = 0; f < all.size(); ++f) {
      SCOPED_TRACE("set " + std::to_string(i) + " family " + std::to_string(f));
      expect_same_stream(all[f], 3000);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(MergerDifferentialTest, PaperSets) {
  std::vector<TaskSet> sets = {table1_base(), table1_degraded(),
                               table1_implicit().materialize_terminating(0.6)};
  Rng rng(1911);
  for (int i = 0; i < 200 && sets.size() < 23; ++i) {
    GenParams params;
    params.u_bound = 0.5 + 0.1 * static_cast<double>(i % 5);
    const auto skeleton = generate_task_set(params, rng);
    if (!skeleton) continue;
    const MinXResult mx = min_x_for_lo(*skeleton);
    if (mx.feasible) sets.push_back(skeleton->materialize(mx.x, 2.0));
  }
  expect_same_families(sets, 20);
}

/// UUniFast skeletons prepared at the exact min-x, on free periods or
/// snapped to `grid`.
std::vector<TaskSet> uunifast_sets(std::uint64_t seed, std::span<const Ticks> grid) {
  Rng rng(seed);
  std::vector<TaskSet> sets;
  for (int i = 0; i < 200 && sets.size() < 16; ++i) {
    UUniFastParams params;
    params.n_tasks = 4 << (i % 4);  // 4 to 32 tasks
    params.u_total_lo = 0.4 + 0.05 * static_cast<double>(i % 5);
    ImplicitSet skeleton = generate_uunifast_set(params, rng);
    if (!grid.empty()) skeleton = snap_to_grid(skeleton, rng, grid);
    const MinXResult mx = min_x_for_lo(skeleton);
    if (mx.feasible) sets.push_back(skeleton.materialize(mx.x, 2.0));
  }
  return sets;
}

TEST(MergerDifferentialTest, UUniFastSets) {
  expect_same_families(uunifast_sets(1913, {}), 12);
}

TEST(MergerDifferentialTest, HarmonicGridSets) {
  static constexpr std::array<Ticks, 8> kBenchGrid = {200,  250,  500,  1000,
                                                      2000, 2500, 5000, 10000};
  expect_same_families(uunifast_sets(1917, kBenchGrid), 12);
}

TEST(MergerDifferentialTest, FmsSets) {
  std::vector<TaskSet> sets;
  for (const double gamma : {1.0, 2.0, 4.0}) {
    const ImplicitSet fms = fms_task_set(gamma);
    const MinXResult mx = min_x_for_lo(fms);
    if (!mx.feasible) continue;
    sets.push_back(fms.materialize(mx.x, 2.0));
    sets.push_back(fms.materialize_terminating(mx.x));
  }
  expect_same_families(sets, 4);
}

/// Generator sets on kOracleGrid in the exact-oracle variants: LO tasks
/// terminated, LO service degraded, and deadlines shortened past min-x.
TEST(MergerDifferentialTest, ExactOracleSets) {
  Rng rng(1919);
  std::vector<TaskSet> sets;
  for (int i = 0; i < 400 && sets.size() < 18; ++i) {
    GenParams params;
    params.u_bound = 0.3 + 0.1 * static_cast<double>(i % 5);
    const auto drawn = generate_task_set(params, rng);
    if (!drawn) continue;
    const ImplicitSet skeleton = snap_to_grid(*drawn, rng);
    const MinXResult mx = min_x_for_lo(skeleton);
    if (!mx.feasible) continue;
    sets.push_back(i % 3 == 0   ? skeleton.materialize_terminating(mx.x)
                   : i % 3 == 1 ? skeleton.materialize(mx.x, 2.0)
                                : skeleton.materialize(0.5 * mx.x, 2.0));
  }
  expect_same_families(sets, 12);
}

}  // namespace
}  // namespace rbs
