#include "core/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/edf.hpp"
#include "core/speedup.hpp"

namespace rbs {

TaskSet scale_hi_wcets(const TaskSet& set, double gamma) {
  std::vector<McTask> tasks;
  tasks.reserve(set.size());
  for (const McTask& t : set) {
    if (!t.is_hi()) {
      tasks.push_back(t);
      continue;
    }
    const Ticks c_lo = t.wcet(Mode::LO);
    const Ticks c_hi = std::clamp(
        static_cast<Ticks>(std::llround(gamma * static_cast<double>(c_lo))), c_lo,
        t.deadline(Mode::HI));
    tasks.push_back(McTask::hi(t.name(), c_lo, c_hi, t.deadline(Mode::LO),
                               t.deadline(Mode::HI), t.period(Mode::LO)));
  }
  return TaskSet(std::move(tasks));
}

std::optional<double> max_tolerable_gamma(const TaskSet& set, double s,
                                          const SensitivityOptions& options) {
  const auto ok = [&](double gamma) {
    const TaskSet scaled = scale_hi_wcets(set, gamma);
    return lo_mode_schedulable(scaled) && hi_mode_schedulable(scaled, s);
  };
  if (!ok(1.0)) return std::nullopt;
  if (ok(options.max_factor)) return options.max_factor;
  double lo = 1.0, hi = options.max_factor;  // ok(lo), !ok(hi)
  while (hi - lo > options.resolution) {
    const double mid = 0.5 * (lo + hi);
    (ok(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace rbs
