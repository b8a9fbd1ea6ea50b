#include "core/dbf.hpp"

#include <cassert>
#include <numeric>

#include "support/rt_annotations.hpp"

namespace rbs {

// Eq. 4 as the paper writes it: the oracle the LO-mode demand tests check
// LoDemandTable's walk against.
// rbs-lint: allow(api-unreached) -- the LO-mode tests' textbook oracle.
Ticks dbf_lo(const McTask& task, Ticks delta) {
  assert(delta >= 0 && delta < kInfTicks);
  const Ticks d = task.deadline(Mode::LO);
  const Ticks t = task.period(Mode::LO);
  if (delta < d) return 0;
  return ((delta - d) / t + 1) * task.wcet(Mode::LO);
}

Ticks dbf_hi(const McTask& task, Ticks delta) {
  assert(delta >= 0 && delta < kInfTicks);
  if (task.dropped_in_hi()) return 0;
  const Ticks t = task.period(Mode::HI);
  const Ticks g = task.deadline_extension();  // D(HI) - D(LO) >= 0
  const Ticks q = delta / t;
  const Ticks rho = delta % t;  // (delta mod T(HI)) of Eq. (5)
  return residual_demand(rho - g, task.wcet(Mode::LO), task.wcet(Mode::HI)) +
         q * task.wcet(Mode::HI);
}

// rbs-lint: allow(api-unreached) -- the total of the Eq. 4 oracle above.
RBS_HOT_PATH Ticks dbf_lo_total(std::span<const McTask> tasks, Ticks delta) {
  Ticks sum = 0;
  for (const McTask& t : tasks) sum += dbf_lo(t, delta);
  return sum;
}

RBS_HOT_PATH Ticks dbf_hi_total(std::span<const McTask> tasks, Ticks delta) {
  Ticks sum = 0;
  for (const McTask& t : tasks) sum += dbf_hi(t, delta);
  return sum;
}

Ticks dbf_hi_breakpoints(const McTask& task, unsigned mask, std::vector<TaggedSeq>& out) {
  if (task.dropped_in_hi()) return 0;
  return append_ramp_family(task.period(Mode::HI), task.deadline_extension(),
                            task.wcet(Mode::LO), task.wcet(Mode::HI), mask, out);
}

std::optional<Ticks> lcm_within(Ticks h, Ticks period, Ticks cap) {
  const Ticks step = h / std::gcd(h, period);
  if (step > cap / period) return std::nullopt;  // step * period > cap
  return step * period;
}

std::optional<Ticks> hyperperiod(std::span<const McTask> tasks, Mode mode) {
  std::optional<Ticks> h = 1;
  for (const McTask& t : tasks) {
    if (is_inf(t.period(mode))) continue;
    h = lcm_within(*h, t.period(mode), kInfTicks);
    if (!h) break;
  }
  return h;
}

TaggedSeq dbf_lo_breakpoints(const McTask& task, unsigned mask) {
  return {{task.deadline(Mode::LO), task.period(Mode::LO)}, mask, task.wcet(Mode::LO), 0};
}

}  // namespace rbs
