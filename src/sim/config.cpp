#include "sim/config.hpp"

#include <cmath>
#include <string>

namespace rbs::sim {

namespace {
bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }
}  // namespace

Status validate_config(const TaskSet& set, const SimConfig& cfg) {
  if (!std::isfinite(cfg.horizon) || cfg.horizon <= 0.0)
    return Status::error("config: horizon must be finite and > 0");
  if (!std::isfinite(cfg.hi_speed) || cfg.hi_speed <= 0.0)
    return Status::error("config: hi_speed must be finite and > 0");
  if (!finite_nonneg(cfg.speed_change_latency))
    return Status::error("config: speed_change_latency must be finite and >= 0");
  if (!finite_nonneg(cfg.release_jitter))
    return Status::error("config: release_jitter must be finite and >= 0");
  if (!finite_nonneg(cfg.min_overrun_separation))
    return Status::error("config: min_overrun_separation must be finite and >= 0");
  if (!finite_nonneg(cfg.initial_offset_spread))
    return Status::error("config: initial_offset_spread must be finite and >= 0");
  if (!finite_nonneg(cfg.max_boost_duration))
    return Status::error("config: max_boost_duration must be finite and >= 0");
  if (!std::isfinite(cfg.demand.overrun_probability) || cfg.demand.overrun_probability < 0.0 ||
      cfg.demand.overrun_probability > 1.0)
    return Status::error("config: overrun_probability must lie in [0, 1]");
  if (!finite_nonneg(cfg.demand.base_fraction_min) || !finite_nonneg(cfg.demand.base_fraction_max))
    return Status::error("config: demand base fractions must be finite and >= 0");

  if (!cfg.start_times.empty()) {
    if (cfg.start_times.size() != set.size())
      return Status::error("config: start_times has " + std::to_string(cfg.start_times.size()) +
                           " entries for " + std::to_string(set.size()) + " tasks");
    for (std::size_t i = 0; i < cfg.start_times.size(); ++i)
      if (!finite_nonneg(cfg.start_times[i]))
        return Status::error("config: start_times[" + std::to_string(i) +
                             "] must be finite and >= 0");
  }

  if (!cfg.scripted_arrivals.empty()) {
    if (cfg.scripted_arrivals.size() != set.size())
      return Status::error("config: scripted_arrivals has " +
                           std::to_string(cfg.scripted_arrivals.size()) + " entries for " +
                           std::to_string(set.size()) + " tasks");
    for (std::size_t i = 0; i < cfg.scripted_arrivals.size(); ++i) {
      double prev = -1.0;
      for (const SimConfig::ScriptedJob& j : cfg.scripted_arrivals[i]) {
        if (!finite_nonneg(j.release))
          return Status::error("config: scripted release of task " + std::to_string(i) +
                               " must be finite and >= 0");
        if (!std::isfinite(j.demand) || j.demand <= 0.0)
          return Status::error("config: scripted demand of task " + std::to_string(i) +
                               " must be finite and > 0");
        if (j.release < prev)
          return Status::error("config: scripted releases of task " + std::to_string(i) +
                               " must be non-decreasing");
        prev = j.release;
      }
    }
  }

  return validate(cfg.faults, cfg.hi_speed);
}

}  // namespace rbs::sim
