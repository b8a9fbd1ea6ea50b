#include "core/overhead.hpp"

#include <vector>

#include "core/speedup.hpp"

namespace rbs {

std::optional<TaskSet> inflate_for_overheads(const TaskSet& set, Ticks context_switch) {
  const Ticks per_job = 2 * context_switch;
  std::vector<McTask> tasks;
  tasks.reserve(set.size());
  for (const McTask& t : set) {
    if (t.is_hi()) {
      const Ticks c_lo = t.wcet(Mode::LO) + per_job;
      const Ticks c_hi = t.wcet(Mode::HI) + per_job;
      if (c_lo > t.deadline(Mode::LO) || c_hi > t.deadline(Mode::HI)) return std::nullopt;
      tasks.push_back(McTask::hi(t.name(), c_lo, c_hi, t.deadline(Mode::LO),
                                 t.deadline(Mode::HI), t.period(Mode::LO)));
    } else {
      const Ticks c = t.wcet(Mode::LO) + per_job;
      if (c > t.deadline(Mode::LO)) return std::nullopt;
      if (!t.dropped_in_hi() && c > t.deadline(Mode::HI)) return std::nullopt;
      tasks.push_back(McTask::lo(t.name(), c, t.deadline(Mode::LO), t.period(Mode::LO),
                                 t.deadline(Mode::HI), t.period(Mode::HI)));
    }
  }
  return TaskSet(std::move(tasks));
}

Ticks max_tolerable_context_switch(const TaskSet& set, double s, Ticks ceiling) {
  auto ok = [&](Ticks delta) {
    const auto inflated = inflate_for_overheads(set, delta);
    return inflated && system_schedulable(*inflated, s);
  };
  if (!ok(0)) return -1;
  Ticks lo = 0, hi = 1;
  while (hi <= ceiling && ok(hi)) {
    lo = hi;
    hi *= 2;
  }
  if (hi > ceiling) return lo;  // tolerant beyond the ceiling: report last known-good
  while (hi - lo > 1) {
    const Ticks mid = lo + (hi - lo) / 2;
    (ok(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace rbs
