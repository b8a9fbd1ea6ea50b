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
// running state (RunningDemand) instead of re-summing all n tasks at every
// breakpoint. The running totals are the same integers the per-task sums
// produce.
//
// The merger streams the union of the sequences through rings: the sequences
// that share a period and a consumer mask advance in lockstep, so they share
// one heap entry, and equal starts are summed once, when the ring is built.
// A tick costs O(log R) heap work per ring that hits it, with R the number of
// rings: for the builders' tables, one per distinct period and consumer,
// however many tasks share a period. Every builder hands the merger its
// table in ring order, and the merger sorts nothing. The stream is exactly
// the per-sequence merge's (tests/core/reference_merger.hpp), whatever the
// order: strictly increasing ticks below kInfTicks, each carrying the OR of
// the masks that hit it and, per consumer, the summed jumps and slopes.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
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

/// The carry-over residual r(w) of Eq. (6): 0 for w < 0,
/// min(w, C(LO)) + C(HI) - C(LO) otherwise.
inline Ticks residual_demand(Ticks w, Ticks c_lo, Ticks c_hi) {
  if (w < 0) return 0;
  return std::min(w, c_lo) + (c_hi - c_lo);
}

/// Appends the breakpoint sequences of one carry-over ramp family, tagged
/// `mask`, with their deltas, and returns the family's slope just right of
/// Delta = 0. The family is the demand r(rho - offset) + q*C(HI) (plus a
/// constant), with q = Delta div T, rho = Delta mod T and r the carry-over
/// residual above: DBF_HI with offset g = D(HI) - D(LO) (Lemma 1), ADB_HI with offset
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
/// and, per consumer, the summed deltas of the sequences tagged for it. Ticks
/// at or past kInfTicks are never emitted; starts are non-negative.
///
/// The sequences that share a period T and a mask advance in lockstep: with
/// their starts sorted, s_0 < s_1 < ... < s_k, they hit s_0, ..., s_k, then
/// s_0 + T, ..., s_k + T, and so on. Such a group is one ring, and a ring is
/// one heap entry: its next tick and the position of the start that hits it.
/// Sequences with equal starts are summed into one stop when the ring is
/// built, so a pop emits one stop and re-arms the ring at the gap to its next
/// start, or, past s_k, at s_0 one period later. That walk increases strictly
/// while a ring spans less than a period (s_k - s_0 < T), so a group that
/// spans more (a start at or above T) is split into several rings. A ring of
/// singletons (period 0) never wraps: it is walked once and dropped. The mask
/// is part of the ring key, so each consumer's sequences sit in rings of
/// their own. The rings are the maximal runs of the table as given: a table
/// in ring order (each key's stops contiguous, by rising start) gives one
/// ring per key, and out-of-order stops stay exact but split their rings.
/// tests/core/reference_merger.hpp keeps the per-sequence merger this one
/// must agree with, point for point.
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

  /// An empty merger; rearm() arms it.
  TaggedBreakpointMerger() = default;

  /// A merger armed over `stops` (rearm).
  explicit TaggedBreakpointMerger(const std::vector<TaggedSeq>& stops) { rearm(stops); }

  /// Arms the merger over `stops`, the one way in: a stop table in ring
  /// order, the stops of one key (period, mask) contiguous and by
  /// non-decreasing start. Equal starts are summed here, and the rings are
  /// collected afresh, never taken from a previous walk. Out-of-order stops
  /// stay exact but split their ring. Hot: the analysis re-arms one merger
  /// per call (AnalysisStorage, core/analysis_storage.hpp) and a search that
  /// moves starts within their rings once per probe (LoDemandTable,
  /// core/edf.hpp); no call allocates once the merger has held a table as
  /// large.
  void rearm(std::span<const TaggedSeq> stops) RBS_HOT_PATH {
    assert(stops.size() < std::numeric_limits<std::uint32_t>::max());
    stops_.assign(stops.begin(), stops.end());
    rings_.reserve(stops_.size());
    sum_equal_stops();
    collect_rings();
    heapify();
  }

  /// Next merged breakpoint, or nullopt when every ring is exhausted (only
  /// possible with singletons). Hot: one call per merged tick of every
  /// pseudo-polynomial walk. Each ring hits a tick at most once; a ring is
  /// re-armed in place and sifted down, and the heap only shrinks.
  std::optional<Point> next() RBS_HOT_PATH {
    if (rings_.empty()) return std::nullopt;
    Point p;
    p.tick = rings_.front().at;
    do {
      Ring& ring = rings_.front();
      const TaggedSeq& stop = stops_[ring.pos];
      p.mask |= ring.mask;
      for (unsigned c = 0; c < kMergerConsumers; ++c) {
        if ((ring.mask & (1u << c)) == 0) continue;
        p.delta[c].jump += stop.jump;
        p.delta[c].slope += stop.slope;
      }
      if (!advance(ring)) {
        ring = rings_.back();
        rings_.pop_back();
        if (rings_.empty()) break;
      }
      sift_down(0);
    } while (rings_.front().at == p.tick);
    return p;
  }

 private:
  /// A ring's key (period, mask), its next tick, and the stop stops_[pos]
  /// that hits it; the ring's stops are stops_[first..last], by rising start.
  /// The heap orders by tick alone.
  struct Ring {
    Ticks at = 0;
    Ticks period = 0;
    std::uint32_t pos = 0;
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    unsigned mask = 0;
  };

  /// Sums each run of equal stops (same mask, period and start) into its
  /// first one and closes the gaps.
  void sum_equal_stops() {
    const auto same = [](const TaggedSeq& a, const TaggedSeq& b) {
      return a.mask == b.mask && a.seq.period == b.seq.period && a.seq.start == b.seq.start;
    };
    std::size_t kept = 0;
    for (const TaggedSeq& s : stops_) {
      if (kept > 0 && same(stops_[kept - 1], s)) {
        stops_[kept - 1].jump += s.jump;
        stops_[kept - 1].slope += s.slope;
      } else {
        stops_[kept++] = s;
      }
    }
    stops_.resize(kept);
  }

  /// Replaces rings_ by the maximal runs of stops_ that share a key and rise
  /// by less than one period from their first start. A run whose first start
  /// is at or past kInfTicks (a dropped task) is no ring; a later stop at or
  /// past it only ends its ring, as every tick after it in the walk is
  /// later still.
  void collect_rings() {
    rings_.clear();
    const auto size = static_cast<std::uint32_t>(stops_.size());
    for (std::uint32_t first = 0; first < size;) {
      const TaggedSeq& head = stops_[first];
      std::uint32_t last = first;
      while (last + 1 < size) {
        const TaggedSeq& s = stops_[last + 1];
        if (s.mask != head.mask || s.seq.period != head.seq.period ||
            s.seq.start <= stops_[last].seq.start ||
            (s.seq.period > 0 && s.seq.start - head.seq.start >= s.seq.period))
          break;
        ++last;
      }
      if (head.seq.start < kInfTicks)
        rings_.push_back({head.seq.start, head.seq.period, first, first, last, head.mask});
      first = last + 1;
    }
  }

  /// Moves `ring` to its next stop; false once the ring is exhausted (a
  /// singleton ring past its last stop, or a next tick at kInfTicks or past).
  bool advance(Ring& ring) const {
    const Ticks start = stops_[ring.pos].seq.start;
    Ticks gap = 0;
    if (ring.pos < ring.last) {
      ++ring.pos;
      gap = stops_[ring.pos].seq.start - start;
    } else {
      if (ring.period <= 0) return false;
      gap = ring.period - (start - stops_[ring.first].seq.start);
      ring.pos = ring.first;
    }
    if (ring.at >= kInfTicks - gap) return false;
    ring.at += gap;
    return true;
  }

  /// Orders rings_ into a min-heap by tick.
  void heapify() {
    for (std::size_t i = rings_.size() / 2; i-- > 0;) sift_down(i);
  }

  /// Restores the min-heap order below rings_[i].
  void sift_down(std::size_t i) {
    const Ring ring = rings_[i];
    const std::size_t size = rings_.size();
    for (std::size_t child = 2 * i + 1; child < size; child = 2 * i + 1) {
      if (child + 1 < size && rings_[child + 1].at < rings_[child].at) ++child;
      if (rings_[child].at >= ring.at) break;
      rings_[i] = rings_[child];
      i = child;
    }
    rings_[i] = ring;
  }

  std::vector<TaggedSeq> stops_;
  std::vector<Ring> rings_;
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
