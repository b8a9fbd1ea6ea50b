// The benchmark suite's one clock. Every timestamp rbs_bench takes -- item
// and request latencies, spans, deadlines, set-up time -- comes from
// mono_ns(), so the suite reads time in exactly one place. Nothing on an
// RBS_DET_PATH calls it: timings go to the metric record and the trace file,
// never into an item payload or a digest.
#pragma once

#include <chrono>
#include <cstdint>

namespace rbs::suite {

/// Monotonic nanoseconds since an arbitrary epoch.
inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace rbs::suite
