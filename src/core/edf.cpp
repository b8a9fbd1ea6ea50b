#include "core/edf.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "core/breakpoints.hpp"
#include "core/dbf.hpp"
#include "support/tolerance.hpp"

namespace rbs {

namespace {

__extension__ typedef __int128 Wide;  // exact products of a mantissa and a tick count

/// sum C * h / T over the set, the LO-mode demand of one hyperperiod h, or
/// nullopt on overflow. Each term is at most h, as C <= T.
std::optional<Ticks> hyperperiod_demand(const TaskSet& set, Ticks h) {
  Ticks work = 0;
  for (const McTask& t : set) {
    const Ticks term = t.wcet(Mode::LO) * (h / t.period(Mode::LO));
    if (work > kInfTicks - term) return std::nullopt;
    work += term;
  }
  return work;
}

/// The supply speed * d of a processor at `speed`, compared exactly with an
/// integer work. The speed is split once into mantissa * 2^shift with a
/// 53-bit mantissa, so each product with a tick count needs at most 116 bits,
/// and at most 126 once shifted left.
class Supply {
 public:
  explicit Supply(double speed) {
    if (!(speed > 0.0)) return;  // mantissa 0: only zero work fits
    if (std::isinf(speed)) {
      shift_ = kPastTicks;
      return;
    }
    int exponent = 0;
    const double fraction = std::frexp(speed, &exponent);  // speed = fraction * 2^exponent
    mantissa_ = static_cast<Wide>(std::ldexp(fraction, 53));
    shift_ = exponent - 53;
  }

  /// Whether work <= speed * d holds exactly, for work >= 0 and d >= 1.
  [[nodiscard]] bool covers(Wide work, Ticks d) const {
    if (shift_ >= kPastTicks) return true;
    const Wide supply = mantissa_ * d;
    if (shift_ >= 0) return work <= (supply << shift_);
    // For an integer work, work <= supply / 2^k iff work <= floor(supply / 2^k).
    return work <= (-shift_ >= 120 ? Wide{0} : supply >> -shift_);
  }

 private:
  /// mantissa >= 2^52 and d >= 1, so a shift of 11 puts the supply past any
  /// Ticks value.
  static constexpr int kPastTicks = 11;
  Wide mantissa_ = 0;
  int shift_ = 0;
};

}  // namespace

LoWindow lo_test_window(const TaskSet& set, double speed) {
  const double u = set.total_utilization(Mode::LO);
  // DBF_LO(tau_i, D) <= U_i * D + U_i * (T_i - D_i), so demand can exceed
  // speed * D only below bound_slack / (speed - U).
  double bound_slack = 0.0;
  bool implicit = true;
  for (const McTask& t : set) {
    bound_slack += t.utilization(Mode::LO) *
                   static_cast<double>(t.period(Mode::LO) - t.deadline(Mode::LO));
    implicit = implicit && t.deadline(Mode::LO) == t.period(Mode::LO);
  }

  // The utilization-vs-speed trichotomy is a *breakpoint* of the analysis:
  // U is a sum of C/T ratios whose mathematical value can equal the speed
  // exactly while the computed double lands an ulp off either side (e.g.
  // three tasks with C/T = 1/3). The speed tolerance routes every such case
  // to the exact comparison below instead of an absurd L_a.
  if (definitely_gt(u, speed, kSpeedTol)) return {false, 0};

  // With U <= speed the synchronous busy period ends by the hyperperiod H:
  // the work released in [0, H) is U * H <= speed * H. Every first
  // violation lies inside that busy period, so H bounds the window too.
  if (definitely_lt(u, speed, kSpeedTol)) {
    const double quotient = bound_slack / (speed - u);
    const Ticks l_a = quotient < static_cast<double>(kInfTicks - 2)
                          ? static_cast<Ticks>(quotient) + 1
                          : kInfTicks - 1;
    return {std::nullopt, hyperperiod(set, Mode::LO, l_a).value_or(l_a)};
  }

  // U == speed to tolerance: L_a degenerates, so compare the demand of one
  // hyperperiod with the supply speed * H exactly.
  const std::optional<Ticks> h = hyperperiod(set, Mode::LO);
  const std::optional<Ticks> work = h ? hyperperiod_demand(set, *h) : std::nullopt;
  if (!work) {
    // Overflow: only the breakpoint budget bounds the walk, and running out
    // of it leaves the test inconclusive. Implicit deadlines still decide.
    if (implicit) return {true, 0};
    return {std::nullopt, kInfTicks - 1};
  }
  if (!Supply(speed).covers(*work, *h)) return {false, 0};
  if (implicit) return {true, 0};
  return {std::nullopt, *h};
}

EdfTestResult lo_mode_test(const TaskSet& set, const EdfTestOptions& options) {
  EdfTestResult result;
  const LoWindow window = lo_test_window(set, options.speed);
  if (window.verdict) {
    result.schedulable = *window.verdict;
    return result;  // an overload has no single witness point (violation 0)
  }

  std::vector<TaggedSeq> seqs;
  seqs.reserve(set.size());
  for (const McTask& t : set) seqs.push_back(dbf_lo_breakpoints(t, 1u));
  TaggedBreakpointMerger merger(std::move(seqs));

  // DBF_LO is a step function that is 0 before the first deadline (D >= 1):
  // the running total only adds each tick's jumps. It is kept in 128 bits: at
  // a speed of 8 or more, demand within the supply can pass int64 near the
  // top of the window.
  const Supply supply(options.speed);
  Wide demand = 0;
  while (const auto point = merger.next()) {
    const Ticks d = point->tick;
    if (d > window.last) break;
    if (++result.breakpoints_visited > options.max_breakpoints) {
      result.schedulable = false;
      result.conclusive = false;
      return result;
    }
    demand += point->delta[0].jump;
    if (!supply.covers(demand, d)) {
      result.schedulable = false;
      result.violation_delta = d;
      return result;
    }
  }
  result.schedulable = true;
  return result;
}

bool lo_mode_schedulable(const TaskSet& set, double speed) {
  EdfTestOptions options;
  options.speed = speed;
  return lo_mode_test(set, options).schedulable;
}

}  // namespace rbs
