#include "core/adb.hpp"

#include <cassert>

#include "support/rt_annotations.hpp"

namespace rbs {

Ticks adb_hi(const McTask& task, Ticks delta, bool discard_dropped_carryover) {
  assert(delta >= 0 && delta < kInfTicks);
  if (task.dropped_in_hi())
    return discard_dropped_carryover ? 0 : task.wcet(Mode::LO);
  const Ticks t = task.period(Mode::HI);
  const Ticks gap = t - task.deadline(Mode::LO);  // T(HI) - D(LO) of Eq. (9)
  const Ticks q = delta / t;
  const Ticks rho = delta % t;
  return residual_demand(rho - gap, task.wcet(Mode::LO), task.wcet(Mode::HI)) +
         (q + 1) * task.wcet(Mode::HI);
}

RBS_HOT_PATH Ticks adb_hi_total(std::span<const McTask> tasks, Ticks delta,
                                bool discard_dropped_carryover) {
  Ticks sum = 0;
  for (const McTask& t : tasks) sum += adb_hi(t, delta, discard_dropped_carryover);
  return sum;
}

Ticks adb_hi_breakpoints(const McTask& task, unsigned mask, std::vector<TaggedSeq>& out) {
  if (task.dropped_in_hi()) return 0;
  const Ticks t = task.period(Mode::HI);
  return append_ramp_family(t, t - task.deadline(Mode::LO), task.wcet(Mode::LO),
                            task.wcet(Mode::HI), mask, out);
}

}  // namespace rbs
