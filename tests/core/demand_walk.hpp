// Test helper: walk a TaggedBreakpointMerger the way the analysis walks do,
// keeping the total demand as running state, and check it against a
// reference sum at every integer interval length.
#pragma once

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <vector>

#include "core/breakpoints.hpp"
#include "core/task.hpp"

namespace rbs {

/// Twice the lcm of every finite period of `set` (LO and HI mode): a horizon
/// past which every demand function of the set only repeats.
inline Ticks two_hyperperiods(const TaskSet& set) {
  Ticks h = 1;
  for (const McTask& t : set)
    for (const Mode mode : {Mode::LO, Mode::HI})
      if (!is_inf(t.period(mode))) h = std::lcm(h, t.period(mode));
  return 2 * h;
}

/// Walks `seqs` (consumer 0) from `start`, the demand's value and slope at
/// Delta = 0, up to `horizon`. At every breakpoint the left limit must equal
/// `left(Delta)` and the value after the jump `value(Delta)`; between
/// breakpoints the running line must equal `value(Delta)`.
template <typename Value, typename Left>
void expect_running_total(const std::vector<TaggedSeq>& seqs, RunningDemand start,
                          Ticks horizon, Value value, Left left) {
  TaggedBreakpointMerger merger(seqs);
  RunningDemand total = start;
  EXPECT_EQ(total.value, value(0)) << "value at 0";
  auto point = merger.next();
  if (point && point->tick == 0) point = merger.next();  // deltas apply after 0
  for (Ticks d = 1; d <= horizon; ++d) {
    if (point && point->tick == d) {
      EXPECT_EQ(total.advance(d, point->delta[0]), left(d)) << "left limit at " << d;
      EXPECT_EQ(total.value, value(d)) << "value at breakpoint " << d;
      point = merger.next();
    } else {
      EXPECT_EQ(total.value + total.slope * (d - total.at), value(d)) << "value at " << d;
    }
  }
}

}  // namespace rbs
