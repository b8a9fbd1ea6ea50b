#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "support/tolerance.hpp"

namespace rbs::sim {

namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

Status spec_status(const FaultSpec& spec, double hi_speed, const std::string& where) {
  if (!finite_nonneg(spec.extra_latency))
    return Status::error(where + ": extra_latency must be finite and >= 0");
  if (!finite_nonneg(spec.achieved_speed))
    return Status::error(where + ": achieved_speed must be finite and >= 0");
  // Partial boosts land between the nominal speed 1 and the boost speed;
  // either may be the larger one (the paper's Example 1 allows hi_speed < 1).
  if (spec.achieved_speed > 0.0 && spec.achieved_speed > std::max(1.0, hi_speed))
    return Status::error(where + ": achieved_speed exceeds the speed range (not a partial boost)");
  if (spec.achieved_speed > 0.0 && spec.achieved_speed < kSpeedTol.relative)
    return Status::error(where + ": achieved_speed is vanishingly small");
  if (!finite_nonneg(spec.throttle_after))
    return Status::error(where + ": throttle_after must be finite and >= 0");
  if (!finite_nonneg(spec.throttle_speed))
    return Status::error(where + ": throttle_speed must be finite and >= 0");
  if (spec.throttle_speed > 0.0 && spec.throttle_after <= 0.0)
    return Status::error(where + ": throttle_speed set without throttle_after");
  if (spec.throttle_speed > std::max(1.0, hi_speed))
    return Status::error(where + ": throttle_speed exceeds the speed range");
  return Status::ok();
}

}  // namespace

Status validate(const FaultPlan& plan, double hi_speed) {
  if (!finite_nonneg(plan.detection_period))
    return Status::error("faults: detection_period must be finite and >= 0");
  if (!finite_nonneg(plan.core_fail_at))
    return Status::error("faults: core_fail_at must be finite and >= 0");
  for (std::size_t i = 0; i < plan.episodes.size(); ++i) {
    const Status s =
        spec_status(plan.episodes[i], hi_speed, "faults: episode " + std::to_string(i));
    if (!s) return s;
  }
  return Status::ok();
}

FaultSpec resolve_fault(const FaultPlan& plan, std::size_t episode) {
  // A boost-denied core denies every episode: the denial is a per-core
  // hardware condition, not a per-episode event.
  if (plan.boost_denied_on_core) {
    FaultSpec denied;
    denied.deny_boost = true;
    return denied;
  }
  if (episode < plan.episodes.size()) return plan.episodes[episode];
  if (!plan.recycle || plan.episodes.empty()) return FaultSpec{};
  return plan.episodes[episode % plan.episodes.size()];
}

}  // namespace rbs::sim
