// Streaming enumeration of breakpoints of piecewise-linear demand functions.
//
// DBF_HI (Lemma 1), ADB_HI (Theorem 4) and DBF_LO (Eq. 4) are piecewise
// linear in the interval length, with integer jumps and slopes, and their
// breakpoints lie on a finite union of arithmetic sequences (window starts
// k*T, ramp starts k*T + g, ramp ends k*T + g + C(LO); DBF_LO's deadlines
// k*T + D(LO)). The pseudo-polynomial algorithms of Sections III/IV walk these
// breakpoints in increasing order without materialising them, which keeps
// memory O(#tasks) even when the stopping bound is large.
//
// Every sequence also carries what each of its ticks adds to the total
// demand's value (jump) and slope. A walk therefore keeps the total demand as
// running state (RunningDemand) and pays O(1) per popped sequence, instead of
// re-summing all n tasks at every breakpoint. The running totals are the same
// integers the per-task sums produce.
#pragma once

#include <array>
#include <cassert>
#include <optional>
#include <queue>
#include <utility>
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

/// An arithmetic sequence annotated with the consumers (a bitmask) it serves
/// and with what each of its ticks after 0 adds to those consumers' total
/// demand (`jump`) and to its slope (`slope`). The value and slope at 0 are
/// the consumer's own starting state. The fused analysis sweep
/// (core/analysis.hpp) walks the DBF_HI and ADB_HI breakpoint families in one
/// pass; the mask tells it which sub-analysis each merged tick belongs to, so
/// a settled consumer skips foreign ticks for free. Single-consumer walks tag
/// consumer 0 (mask 1).
struct TaggedSeq {
  ArithSeq seq;
  unsigned mask = 0;
  Ticks jump = 0;
  Ticks slope = 0;
};

/// Consumers a merger sums deltas for: mask bit c is consumer c.
inline constexpr unsigned kMergerConsumers = 2;

/// Appends the breakpoint sequences of one carry-over ramp family, tagged
/// `mask`, with their deltas, and returns the family's slope just right of
/// Delta = 0. The family is the demand r(rho - offset) + q*C(HI) (plus a
/// constant), with q = Delta div T, rho = Delta mod T and the carry-over
/// residual r(w) = 0 for w < 0, min(w, C(LO)) + C(HI) - C(LO) otherwise:
/// DBF_HI with offset g = D(HI) - D(LO) (Lemma 1), ADB_HI with offset
/// T(HI) - D(LO) (Theorem 4). Constrained deadlines give
/// 0 <= offset <= offset + C(LO) <= T. Deltas per tick, k >= 1:
///
///   window start k*T     jump C(HI)-C(LO) and slope +1 when offset = 0,
///                        slope -1 when offset + C(LO) = T
///   ramp start k*T+off   jump C(HI)-C(LO), slope +1     (0 < offset)
///   ramp end k*T+off+C   slope -1                        (offset + C(LO) < T)
inline Ticks append_ramp_family(Ticks period, Ticks offset, Ticks c_lo, Ticks c_hi,
                                unsigned mask, std::vector<TaggedSeq>& out) {
  assert(offset >= 0 && c_lo >= 1 && offset + c_lo <= period);
  const Ticks residual = c_hi - c_lo;  // r's jump where its ramp starts
  const Ticks ramp_end = offset + c_lo;
  const Ticks starts_here = offset == 0 ? 1 : 0;
  const Ticks ends_here = ramp_end == period ? 1 : 0;
  out.push_back({{0, period}, mask, starts_here * residual, starts_here - ends_here});
  if (offset > 0) out.push_back({{offset, period}, mask, residual, 1});
  if (ramp_end < period) out.push_back({{ramp_end, period}, mask, 0, -1});
  return starts_here;
}

/// Merges tagged sequences into one strictly increasing stream; each tick is
/// emitted once, carrying the union of the masks of every sequence hitting it
/// and, per consumer, the summed deltas of the sequences tagged for it.
class TaggedBreakpointMerger {
 public:
  /// Summed jump and slope change of one consumer at one tick.
  struct Delta {
    Ticks jump = 0;
    Ticks slope = 0;
  };
  struct Point {
    Ticks tick = 0;
    unsigned mask = 0;
    std::array<Delta, kMergerConsumers> delta{};
  };

  /// Takes the sequences by value: callers that are done with their vector
  /// move it in, and the merger keeps it as the table its heap entries index.
  explicit TaggedBreakpointMerger(std::vector<TaggedSeq> seqs) : seqs_(std::move(seqs)) {
    std::vector<Entry> entries;
    entries.reserve(seqs_.size());
    for (std::size_t i = 0; i < seqs_.size(); ++i)
      if (seqs_[i].seq.start < kInfTicks)  // sequences of dropped tasks
        entries.push_back({seqs_[i].seq.start, i});
    heap_ = Heap(Later{}, std::move(entries));
  }

  /// Next merged breakpoint, or nullopt when every sequence is exhausted
  /// (only possible with singletons). Hot: one call per merged tick of every
  /// pseudo-polynomial walk. The heap was sized at construction; pop-then-push
  /// never reallocates.
  std::optional<Point> next() RBS_HOT_PATH {
    if (heap_.empty()) return std::nullopt;
    Point p;
    p.tick = heap_.top().at;
    while (!heap_.empty() && heap_.top().at == p.tick) {
      const Entry e = heap_.top();
      heap_.pop();
      const TaggedSeq& s = seqs_[e.seq];
      p.mask |= s.mask;
      for (unsigned c = 0; c < kMergerConsumers; ++c) {
        if ((s.mask & (1u << c)) == 0) continue;
        p.delta[c].jump += s.jump;
        p.delta[c].slope += s.slope;
      }
      if (s.seq.period > 0 && e.at < kInfTicks - s.seq.period)
        heap_.push({e.at + s.seq.period, e.seq});
    }
    return p;
  }

 private:
  /// The next tick of sequence seqs_[seq]; the heap orders by tick alone.
  struct Entry {
    Ticks at = 0;
    std::size_t seq = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const { return a.at > b.at; }
  };
  using Heap = std::priority_queue<Entry, std::vector<Entry>, Later>;
  std::vector<TaggedSeq> seqs_;
  Heap heap_;
};

/// A total demand walked tick by tick: its value at the last tick reached and
/// its slope from there on. Between two ticks of its consumer the demand is
/// linear, so the left limit at the next tick is value + slope * (tick - at).
struct RunningDemand {
  Ticks value = 0;
  Ticks slope = 0;
  Ticks at = 0;

  /// Moves to tick `d` (> at), applies the consumer's deltas there and
  /// returns the left limit at `d`.
  Ticks advance(Ticks d, const TaggedBreakpointMerger::Delta& delta) {
    const Ticks left = value + slope * (d - at);
    value = left + delta.jump;
    slope += delta.slope;
    at = d;
    return left;
  }
};

}  // namespace rbs
