// Criticality-aware admission control for the analysis server.
//
// The paper's mixed-criticality degradation philosophy, applied to the
// service layer instead of the processor: under nominal load the server runs
// in its LO service mode and every request receives a full-exactness
// analysis. When the backlog exceeds a threshold the controller performs the
// service-level analogue of the LO->HI mode switch:
//
//   * LO-criticality requests are shed with the typed Status::overloaded
//     verdict (the request was well-formed; retry later), and
//   * HI-criticality requests keep being served, but under the reduced
//     AnalysisLimits::degraded() budget -- the report's exactness flags mark
//     the degradation honestly, mirroring how EDF-VD keeps HI tasks running
//     at reduced service rather than missing deadlines.
//
// When the backlog drains below a (hysteresis) low-water mark the controller
// switches back to LO and full service resumes, the service analogue of the
// paper's Delta_R "safe to switch back" question. Decisions depend only on
// the observed queue depths, never on wall-clock time, so a fixed arrival
// trace yields a byte-identical decision sequence (the determinism tests in
// tests/service/service_test.cpp rely on this).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/types.hpp"
#include "support/thread_annotations.hpp"

namespace rbs::service {

/// The server's service mode, named after the task-model modes it mirrors:
/// kLo = nominal (everything served exactly), kHi = overloaded (LO shed,
/// HI degraded).
enum class ServiceMode : std::uint8_t { kLo, kHi };

[[nodiscard]] const char* to_string(ServiceMode mode);

struct AdmissionOptions {
  /// Queue depth at which the controller switches LO -> HI. The switch
  /// happens when an arriving request observes depth >= this threshold.
  std::size_t hi_enter_depth = 64;
  /// Depth at or below which a drained backlog switches HI -> LO. Must be
  /// below hi_enter_depth for hysteresis (enforced by clamping).
  std::size_t lo_exit_depth = 8;
};

/// What the controller decided for one arriving request.
struct AdmissionDecision {
  bool admit = true;            ///< false: shed with Status::overloaded
  bool degrade = false;         ///< true: serve under AnalysisLimits::degraded()
  ServiceMode mode = ServiceMode::kLo;  ///< mode AFTER this decision
};

/// Thread-safe mode-switch state machine. All transitions happen inside
/// admit() (arrivals observing pressure) and observe_depth() (workers
/// observing drain), both O(1) under one lock.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  /// Decides the fate of one arriving request given the queue depth it
  /// observes. May switch the mode LO -> HI.
  [[nodiscard]] AdmissionDecision admit(Criticality priority, std::size_t queue_depth)
      RBS_EXCLUDES(mutex_);

  /// Reports the post-dequeue depth from a worker. May switch HI -> LO once
  /// the backlog has receded to the low-water mark.
  void observe_depth(std::size_t queue_depth) RBS_EXCLUDES(mutex_);

  [[nodiscard]] ServiceMode mode() const RBS_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t switches_to_hi() const RBS_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t switches_to_lo() const RBS_EXCLUDES(mutex_);

 private:
  AdmissionOptions options_;
  mutable Mutex mutex_;
  ServiceMode mode_ RBS_GUARDED_BY(mutex_) = ServiceMode::kLo;
  std::uint64_t switches_to_hi_ RBS_GUARDED_BY(mutex_) = 0;
  std::uint64_t switches_to_lo_ RBS_GUARDED_BY(mutex_) = 0;
};

}  // namespace rbs::service
