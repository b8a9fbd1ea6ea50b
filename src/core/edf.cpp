#include "core/edf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/dbf.hpp"
#include "support/tolerance.hpp"

namespace rbs {

namespace {

__extension__ typedef __int128 Wide;  // exact products of a mantissa and a tick count

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

/// The end of the utilization window L_a: an integer above the exact bound
/// S / (speed - U), where `slack` and `u` are the double sums of S and U over
/// `n` tasks (docs/ANALYSIS.md §1). Each of the n non-negative terms is
/// rounded at most five times (C, T and T - D to double, C/T, the product)
/// before recursive summation, so both sums are within a relative
/// `sum_error` = (n + 6) * 2^-52 of the exact ones. Hence
/// S <= slack * (1 + sum_error) and speed - U >= (speed - u) * (1 - r - 2^-51)
/// with r = sum_error * u / (speed - u), and the last factor, 1 + 2^-49,
/// outweighs the roundings of evaluating the bound. No factor is below 1,
/// so the end is never below floor(slack / (speed - u)) + 1, the end before
/// the bound was rounded up.
Ticks utilization_window_end(double slack, double u, double speed, std::size_t n) {
  constexpr double kUlp = std::numeric_limits<double>::epsilon();  // 2^-52
  const double sum_error = static_cast<double>(n + 6) * kUlp;
  const double headroom = speed - u;
  const double r = sum_error * u / headroom;
  if (!(r < 0.5)) return kInfTicks - 1;  // U too close to the speed to bound
  const double quotient = slack / headroom;
  const double bound = quotient * (1.0 + sum_error) / (1.0 - r - 2.0 * kUlp) * (1.0 + 8.0 * kUlp);
  return bound < static_cast<double>(kInfTicks - 2) ? static_cast<Ticks>(bound) + 1
                                                     : kInfTicks - 1;
}

}  // namespace

LoDemandTable::LoDemandTable(const TaskSet& set) { assign(set); }

LoDemandTable::LoDemandTable(const ImplicitSet& set) {
  tasks_.reserve(set.size());
  for (const ImplicitTask& t : set.tasks())  // D(LO) = T at x = 1
    tasks_.push_back({{{t.period, t.period}, 1u, t.c_lo, 0}, t.u_lo(),
                      t.criticality == Criticality::HI});
  arm();
}

void LoDemandTable::assign(std::span<const McTask> tasks) {
  tasks_.clear();
  tasks_.reserve(tasks.size());
  for (const McTask& t : tasks)
    tasks_.push_back({dbf_lo_breakpoints(t, 1u), t.utilization(Mode::LO), t.is_hi()});
  // The fold belongs to the previous tasks: a kept H, or a kept cap that a
  // failed fold reached, would answer for the new ones.
  hyperperiod_.reset();
  hyperperiod_cap_ = 0;
  arm();
}

void LoDemandTable::arm() {
  assert(tasks_.size() < std::numeric_limits<std::uint32_t>::max());
  ring_order_.resize(tasks_.size());
  std::iota(ring_order_.begin(), ring_order_.end(), std::uint32_t{0});
  std::sort(ring_order_.begin(), ring_order_.end(), [&](std::uint32_t i, std::uint32_t j) {
    const Task& a = tasks_[i];
    const Task& b = tasks_[j];
    if (a.stop.seq.period != b.stop.seq.period) return a.stop.seq.period < b.stop.seq.period;
    if (a.stop.seq.start != b.stop.seq.start) return a.stop.seq.start < b.stop.seq.start;
    if (a.hi != b.hi) return a.hi;
    return a.stop.jump != b.stop.jump ? a.stop.jump < b.stop.jump : i < j;
  });
  stops_.clear();
  stops_.reserve(tasks_.size());
  for (std::uint32_t i : ring_order_) stops_.push_back(tasks_[i].stop);

  // U summed as TaskSet::total_utilization sums it: the LO tasks, then the
  // HI tasks, each in set order.
  double lo_tasks = 0.0;
  double hi_tasks = 0.0;
  for (const Task& t : tasks_) (t.hi ? hi_tasks : lo_tasks) += t.utilization;
  utilization_ = lo_tasks + hi_tasks;
  sum_slack();
}

void LoDemandTable::sum_slack() {
  // DBF_LO(tau_i, D) <= U_i * D + U_i * (T_i - D_i), so demand can exceed
  // speed * D only below slack / (speed - U).
  slack_ = 0.0;
  implicit_ = true;
  for (const Task& t : tasks_) {
    const ArithSeq& seq = t.stop.seq;  // D(LO) + k*T(LO)
    slack_ += t.utilization * static_cast<double>(seq.period - seq.start);
    implicit_ = implicit_ && seq.start == seq.period;
  }
}

std::optional<Ticks> LoDemandTable::hyperperiod(Ticks cap) const {
  if (hyperperiod_ || cap <= hyperperiod_cap_)
    return hyperperiod_ && *hyperperiod_ <= cap ? hyperperiod_ : std::nullopt;
  hyperperiod_ = 1;
  hyperperiod_cap_ = cap;
  for (const Task& t : tasks_) {
    hyperperiod_ = lcm_within(*hyperperiod_, t.stop.seq.period, cap);
    if (!hyperperiod_) break;
  }
  return hyperperiod_;
}

std::optional<Ticks> LoDemandTable::hyperperiod_demand(Ticks h) const {
  // sum C * h / T; each term is at most h, as C <= T.
  Ticks work = 0;
  for (const Task& t : tasks_) {
    const Ticks term = t.stop.jump * (h / t.stop.seq.period);
    if (work > kInfTicks - term) return std::nullopt;
    work += term;
  }
  return work;
}

void LoDemandTable::prepare_hi_deadlines(double x) {
  for (Task& t : tasks_)
    if (t.hi) t.stop.seq.start = prepared_lo_deadline(x, t.stop.seq.period, t.stop.jump);
  sum_slack();
  // The stops again in ring order. For the normal form, arm()'s order holds
  // at every x: a prepared deadline never decreases with C(LO) and never
  // passes T, the deadline of every LO task of the period.
  for (std::size_t k = 0; k < ring_order_.size(); ++k) stops_[k] = tasks_[ring_order_[k]].stop;
}

LoWindow LoDemandTable::window(double speed) const {
  // The utilization-vs-speed trichotomy is a *breakpoint* of the analysis:
  // U is a sum of C/T ratios whose mathematical value can equal the speed
  // exactly while the computed double lands an ulp off either side (e.g.
  // three tasks with C/T = 1/3). The speed tolerance routes every such case
  // to the exact comparison below instead of an absurd L_a.
  if (definitely_gt(utilization_, speed, kSpeedTol)) return {false, 0};

  // With U <= speed the synchronous busy period ends by the hyperperiod H:
  // the work released in [0, H) is U * H <= speed * H. Every first
  // violation lies inside that busy period, so H bounds the window too.
  if (definitely_lt(utilization_, speed, kSpeedTol)) {
    const Ticks l_a = utilization_window_end(slack_, utilization_, speed, tasks_.size());
    return {std::nullopt, hyperperiod(l_a).value_or(l_a)};
  }

  // U == speed to tolerance: L_a degenerates, so compare the demand of one
  // hyperperiod with the supply speed * H exactly.
  const std::optional<Ticks> h = hyperperiod(kInfTicks);
  const std::optional<Ticks> work = h ? hyperperiod_demand(*h) : std::nullopt;
  if (!work) {
    // Overflow: only the breakpoint budget bounds the walk, and running out
    // of it leaves the test inconclusive. Implicit deadlines still decide.
    if (implicit_) return {true, 0};
    return {std::nullopt, kInfTicks - 1};
  }
  if (!Supply(speed).covers(*work, *h)) return {false, 0};
  if (implicit_) return {true, 0};
  return {std::nullopt, *h};
}

EdfTestResult LoDemandTable::test(const EdfTestOptions& options) {
  EdfTestResult result;
  const LoWindow window = this->window(options.speed);
  if (window.verdict) {
    result.schedulable = *window.verdict;
    return result;  // an overload has no single witness point (violation 0)
  }

  // DBF_LO is a step function that is 0 before the first deadline (D >= 1):
  // the running total only adds each tick's jumps. It is kept in 128 bits: at
  // a speed of 8 or more, demand within the supply can pass int64 near the
  // top of the window.
  merger_.rearm(stops_);
  const Supply supply(options.speed);
  Wide demand = 0;
  while (const auto point = merger_.next()) {
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

EdfTestResult lo_mode_test(const TaskSet& set, const EdfTestOptions& options) {
  return LoDemandTable(set).test(options);
}

bool lo_mode_schedulable(const TaskSet& set, double speed) {
  EdfTestOptions options;
  options.speed = speed;
  return lo_mode_test(set, options).schedulable;
}

}  // namespace rbs
