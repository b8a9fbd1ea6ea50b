// The original stepping simulator kernel, preserved verbatim as a test
// oracle. Production callers go through sim/simulate.hpp's event-driven
// kernel; this one exists so the differential suite (tests/sim/
// differential_test.cpp) can prove the rewrite metric-for-metric and
// trace-for-trace identical on a seeded corpus. Do not optimize it -- its
// value is that it stays the code the golden results were minted with.
#pragma once

#include "core/task.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "support/status.hpp"

namespace rbs::sim {

/// Runs `config` through the legacy stepping kernel. Validates first, like
/// the facade, so both kernels reject the same inputs.
[[nodiscard]] Expected<SimMetrics> reference_simulate(const TaskSet& set,
                                                     const SimConfig& config);

}  // namespace rbs::sim
