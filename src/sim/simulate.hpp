// Facade of the simulation subsystem, mirroring core/analysis.hpp's
// request/report surface.
//
//   Simulator simulator;
//   SimConfig config;
//   config.horizon = 1e6;
//   auto report = simulator.run(make_task_set(...), config);
//   if (!report) { /* typed Status, no exceptions */ }
//   else use(report.value().metrics);
//
// Validation (validate_config + validate_limits) happens here, before any
// event-loop work; the kernel itself assumes pre-validated inputs. For
// campaigns, keep one `Simulator` alive and call run() repeatedly -- the
// kernel reuses its calendar, job pool and scratch buffers across runs, so
// the steady state is allocation-free.
#pragma once

#include "core/task.hpp"
#include "sim/config.hpp"
#include "sim/event_kernel.hpp"
#include "sim/metrics.hpp"
#include "support/status.hpp"

namespace rbs::sim {

/// Reusable simulation engine and the simulator's only entry point. Each
/// instance owns one EventKernel (calendar, job pool, reusable buffers);
/// running many sets through the same instance performs no steady-state
/// allocation. Not thread-safe -- give each worker thread its own Simulator.
class Simulator {
 public:
  /// Validates and simulates `set` under `config` within `limits`. Returns a
  /// typed error (never throws, never enters the event loop) on an invalid
  /// configuration or limits.
  [[nodiscard]] Expected<SimReport> run(const TaskSet& set, const SimConfig& config,
                                        const SimLimits& limits = {});

 private:
  EventKernel kernel_;
};

}  // namespace rbs::sim
