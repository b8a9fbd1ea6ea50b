// The original per-sequence breakpoint merger, preserved verbatim as a test
// oracle. Production walks go through core/breakpoints.hpp's ring merger,
// which gives one heap entry to every ring of sequences sharing a period and
// a mask; this one gives every arithmetic sequence its own entry. The
// differential suite (tests/core/merger_differential_test.cpp) drains both
// and requires the same stream, point for point. Do not optimize it -- its
// value is that it stays the code the golden results were minted with.
#pragma once

#include <array>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/breakpoints.hpp"

namespace rbs::reference {

/// Merges tagged sequences into one strictly increasing stream; each tick is
/// emitted once, carrying the union of the masks of every sequence hitting it
/// and, per consumer, the summed deltas of the sequences tagged for it.
class SequenceMerger {
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
  explicit SequenceMerger(std::vector<TaggedSeq> seqs) : seqs_(std::move(seqs)) {
    std::vector<Entry> entries;
    entries.reserve(seqs_.size());
    for (std::size_t i = 0; i < seqs_.size(); ++i)
      if (seqs_[i].seq.start < kInfTicks)  // sequences of dropped tasks
        entries.push_back({seqs_[i].seq.start, i});
    heap_ = Heap(Later{}, std::move(entries));
  }

  /// Next merged breakpoint, or nullopt when every sequence is exhausted
  /// (only possible with singletons).
  std::optional<Point> next() {
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

}  // namespace rbs::reference
