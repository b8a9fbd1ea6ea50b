// Shared plumbing of rbs_bench (see README.md): run options, the metric
// record a run prints, the suite's own seed derivation and output digest,
// percentiles, and the span recorder used by traced runs.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "clock.hpp"

namespace rbs::suite {

// ---------------------------------------------------------------------------
// Seeds and digests
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer. The suite derives every input from it instead of
/// campaign::item_seed, so a change to the campaign engine's seeding cannot
/// silently change the benchmark's inputs.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed of item `index` of input stream `stream` under the run seed.
constexpr std::uint64_t item_seed(std::uint64_t seed, std::uint64_t stream,
                                  std::uint64_t index) {
  return splitmix64(splitmix64(seed ^ splitmix64(stream)) + index);
}

/// Sequential SplitMix64 draws, for the suite's own choices (arrival gaps,
/// request mix, period grid). Portable: no std distribution is involved.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    const std::uint64_t current = state_;
    state_ += 0x9E3779B97F4A7C15ULL;
    return splitmix64(current);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) / 9007199254740992.0; }
  /// Uniform index in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// FNV-1a over item payloads: the batch workloads' output digest.
class Fnv1a {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buffer[20];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Recorded digests, keyed by "workload/seed" (digests.txt).
using DigestTable = std::map<std::string, std::string>;

/// HI-mode speedup budget every workload certifies (the paper's s = 2).
inline constexpr double kSpeed = 2.0;
/// Service degradation y of LO tasks in HI mode (Fig. 6 uses y = 2).
inline constexpr double kDegradation = 2.0;

// ---------------------------------------------------------------------------
// Run options and the result record
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;        ///< measured window
  bool trace = false;           ///< record spans (the per-layer run)
  bool smoke = false;           ///< minimal scale, every check on, no timing claims
  unsigned workers = 1;         ///< W: batch workers / server workers
  std::string trace_dir;        ///< where the Chrome trace goes ("" = none)
  const DigestTable* digests = nullptr;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds every metric the run
/// measured; run.py selects the end-to-end or per-layer subset.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks, first few kept
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> notes;  ///< digest, sample counts, ...

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void problem(std::string what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(std::move(what));
  }
};

/// Linear-interpolated percentile (q in [0, 1]) of `values`; sorts in place.
inline double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median_of(std::vector<double> values) { return percentile(values, 0.5); }

inline double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Span names: the item root and one per public call the suite makes.
enum class Layer : std::uint8_t {
  kItem,
  kGen,
  kMinX,
  kAnalyze,
  kSim,
  kPartition,
  kResilience,
  kEncode,
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "item", "gen", "min_x", "analyze", "sim", "partition", "resilience", "encode"};

struct SpanRecord {
  Layer layer = Layer::kItem;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// The spans of one item, recorded on the thread that runs it. Nesting is a
/// small stack: closing a span charges its duration to its own layer minus
/// the time its children covered, so the per-layer self times of an item
/// always add up to its wall time.
class ItemTrace {
 public:
  static constexpr std::size_t kMaxSpans = 24;
  static constexpr std::size_t kMaxDepth = 4;

  void open_span(Layer layer) {
    if (depth_ == kMaxDepth) return;
    stack_[depth_++] = Open{layer, mono_ns(), 0};
  }

  void close_span() {
    if (depth_ == 0) return;
    const Open open = stack_[--depth_];
    const std::int64_t end = mono_ns();
    const std::int64_t duration = end - open.start_ns;
    self_ns[static_cast<std::size_t>(open.layer)] += duration - open.child_ns;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
    ++span_count;
    // The root span always makes it into the file, replacing the last child
    // kept when an item has more spans than fit.
    if (stored < kMaxSpans) {
      spans[stored++] = SpanRecord{open.layer, open.start_ns, end};
    } else if (depth_ == 0) {
      spans[kMaxSpans - 1] = SpanRecord{open.layer, open.start_ns, end};
    }
  }

  std::array<std::int64_t, kLayers> self_ns{};
  std::array<SpanRecord, kMaxSpans> spans{};
  std::uint32_t stored = 0;      ///< spans kept for the trace file
  std::uint32_t span_count = 0;  ///< spans closed (including unstored)

 private:
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::array<Open, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
};

/// RAII span; a null trace (untraced run) makes it free of clock reads.
class Span {
 public:
  Span(ItemTrace* trace, Layer layer) : trace_(trace) {
    if (trace_ != nullptr) trace_->open_span(layer);
  }
  ~Span() {
    if (trace_ != nullptr) trace_->close_span();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ItemTrace* trace_;
};

/// One event of the Chrome trace file (chrome://tracing, Perfetto).
struct TraceEvent {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
  std::uint64_t item = 0;
};

/// Writes `events` as Chrome trace JSON (timestamps relative to `origin_ns`)
/// to `path`; returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<TraceEvent>& events,
                        std::int64_t origin_ns);

/// Nanoseconds one open/close span pair costs on this host (measured).
double span_cost_ns();

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

bool is_batch_workload(const std::string& name);
bool is_service_workload(const std::string& name);
RunResult run_batch(const RunOptions& options);
RunResult run_service(const RunOptions& options);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

}  // namespace rbs::suite
