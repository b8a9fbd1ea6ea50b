// Streaming enumeration of breakpoints of piecewise-linear demand functions.
//
// DBF_HI (Lemma 1) and ADB_HI (Theorem 4) are piecewise-linear in the
// interval length with breakpoints on a finite union of arithmetic sequences
// (window starts k*T, ramp starts k*T + g, ramp ends k*T + g + C(LO)). The
// pseudo-polynomial algorithms of Sections III/IV walk these breakpoints in
// increasing order without materialising them, which keeps memory O(#tasks)
// even when the stopping bound is large.
#pragma once

#include <optional>
#include <queue>
#include <vector>

#include "core/types.hpp"
#include "support/rt_annotations.hpp"

namespace rbs {

/// The arithmetic sequence start, start + period, start + 2*period, ...
/// A zero period denotes the singleton {start}.
struct ArithSeq {
  Ticks start = 0;
  Ticks period = 0;
};

/// An arithmetic sequence annotated with the consumers (a bitmask) it serves.
/// The fused analysis sweep (core/analysis.hpp) walks the DBF_HI and ADB_HI
/// breakpoint families in one pass; the mask tells it which sub-analysis each
/// merged tick belongs to, so a settled consumer skips foreign ticks for free.
/// Single-consumer walks pass mask 0.
struct TaggedSeq {
  ArithSeq seq;
  unsigned mask = 0;
};

/// Merges tagged sequences into one strictly increasing stream; each tick is
/// emitted once, carrying the union of the masks of every sequence hitting it.
class TaggedBreakpointMerger {
 public:
  struct Point {
    Ticks tick = 0;
    unsigned mask = 0;
  };

  explicit TaggedBreakpointMerger(const std::vector<TaggedSeq>& seqs) {
    for (const TaggedSeq& s : seqs) {
      if (s.seq.start >= kInfTicks) continue;  // sequences of dropped tasks
      heap_.push({s.seq.start, s.seq.period, s.mask});
    }
  }

  /// Next merged breakpoint, or nullopt when every sequence is exhausted
  /// (only possible with singletons). Hot: one call per merged tick of every
  /// pseudo-polynomial walk. The heap was sized at construction; pop-then-push
  /// never reallocates.
  std::optional<Point> next() RBS_HOT_PATH {
    if (heap_.empty()) return std::nullopt;
    Point p{heap_.top().at, 0};
    while (!heap_.empty() && heap_.top().at == p.tick) {
      const Entry e = heap_.top();
      heap_.pop();
      p.mask |= e.mask;
      if (e.period > 0 && e.at < kInfTicks - e.period)
        heap_.push({e.at + e.period, e.period, e.mask});
    }
    return p;
  }

 private:
  struct Entry {
    Ticks at = 0;
    Ticks period = 0;
    unsigned mask = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const { return a.at > b.at; }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
};

}  // namespace rbs
