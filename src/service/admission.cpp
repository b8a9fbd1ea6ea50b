#include "service/admission.hpp"

#include <algorithm>

namespace rbs::service {

const char* to_string(ServiceMode mode) {
  return mode == ServiceMode::kLo ? "LO" : "HI";
}

AdmissionController::AdmissionController(const AdmissionOptions& options) : options_(options) {
  // Hysteresis requires low-water < high-water; a controller configured
  // without a gap would flap on every dequeue.
  options_.hi_enter_depth = std::max<std::size_t>(1, options_.hi_enter_depth);
  options_.lo_exit_depth = std::min(options_.lo_exit_depth, options_.hi_enter_depth - 1);
}

AdmissionDecision AdmissionController::admit(Criticality priority, std::size_t queue_depth) {
  const LockGuard lock(mutex_);
  if (mode_ == ServiceMode::kLo && queue_depth >= options_.hi_enter_depth) {
    mode_ = ServiceMode::kHi;
    ++switches_to_hi_;
  }
  AdmissionDecision decision;
  decision.mode = mode_;
  if (mode_ == ServiceMode::kHi) {
    // The mode-switch contract: HI requests are ALWAYS admitted (degraded),
    // LO requests are always the ones shed. Structural, not probabilistic --
    // the acceptance tests assert zero HI sheds under any overload.
    decision.admit = priority == Criticality::HI;
    decision.degrade = priority == Criticality::HI;
  }
  return decision;
}

void AdmissionController::observe_depth(std::size_t queue_depth) {
  const LockGuard lock(mutex_);
  if (mode_ == ServiceMode::kHi && queue_depth <= options_.lo_exit_depth) {
    mode_ = ServiceMode::kLo;
    ++switches_to_lo_;
  }
}

ServiceMode AdmissionController::mode() const {
  const LockGuard lock(mutex_);
  return mode_;
}

std::uint64_t AdmissionController::switches_to_hi() const {
  const LockGuard lock(mutex_);
  return switches_to_hi_;
}

std::uint64_t AdmissionController::switches_to_lo() const {
  const LockGuard lock(mutex_);
  return switches_to_lo_;
}

}  // namespace rbs::service
