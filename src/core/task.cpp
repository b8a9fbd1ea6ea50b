#include "core/task.hpp"

#include <sstream>
#include <stdexcept>

namespace rbs {

McTask McTask::hi(std::string name, Ticks c_lo, Ticks c_hi, Ticks lo_deadline, Ticks deadline,
                  Ticks period) {
  McTask t;
  t.name_ = std::move(name);
  t.criticality_ = Criticality::HI;
  t.lo_ = {period, lo_deadline, c_lo};
  t.hi_ = {period, deadline, c_hi};
  return t;
}

McTask McTask::lo(std::string name, Ticks c, Ticks deadline, Ticks period, Ticks hi_deadline,
                  Ticks hi_period) {
  McTask t;
  t.name_ = std::move(name);
  t.criticality_ = Criticality::LO;
  t.lo_ = {period, deadline, c};
  t.hi_ = {hi_period, hi_deadline, c};
  return t;
}

McTask McTask::lo(std::string name, Ticks c, Ticks deadline, Ticks period) {
  return lo(std::move(name), c, deadline, period, deadline, period);
}

McTask McTask::lo_terminated(std::string name, Ticks c, Ticks deadline, Ticks period) {
  return lo(std::move(name), c, deadline, period, kInfTicks, kInfTicks);
}

void McTask::set_hi_service(Ticks hi_deadline, Ticks hi_period) {
  hi_.deadline = hi_deadline;
  hi_.period = hi_period;
}

double McTask::utilization(Mode mode) const {
  const ModeParams& p = params(mode);
  if (is_inf(p.period)) return 0.0;
  return static_cast<double>(p.wcet) / static_cast<double>(p.period);
}

std::vector<std::string> McTask::validate() const {
  std::vector<std::string> issues;
  auto fail = [&](const std::string& what) { issues.push_back(name_ + ": " + what); };

  auto check_mode = [&](const ModeParams& p, const char* mode) {
    if (p.wcet < 1) fail(std::string("C(") + mode + ") must be >= 1 tick");
    if (p.deadline < 1) fail(std::string("D(") + mode + ") must be >= 1 tick");
    if (p.period < 1) fail(std::string("T(") + mode + ") must be >= 1 tick");
    if (!is_inf(p.deadline) && p.deadline > p.period)
      fail(std::string("constrained deadline violated in ") + mode + " mode (D > T)");
    if (!is_inf(p.deadline) && p.wcet > p.deadline)
      fail(std::string("C(") + mode + ") exceeds D(" + mode + ")");
  };
  check_mode(lo_, "LO");
  check_mode(hi_, "HI");

  if (is_inf(lo_.period) || is_inf(lo_.deadline) || is_inf(lo_.wcet) || is_inf(hi_.wcet))
    fail("only T(HI)/D(HI) of a LO task may be infinite");

  if (criticality_ == Criticality::HI) {
    if (hi_.period != lo_.period) fail("HI task must keep T(HI) = T(LO) (Eq. 1)");
    if (lo_.deadline > hi_.deadline) fail("HI task needs D(LO) <= D(HI) (Eq. 1)");
    if (hi_.wcet < lo_.wcet) fail("HI task needs C(HI) >= C(LO) (Eq. 1)");
    if (is_inf(hi_.period) || is_inf(hi_.deadline)) fail("HI task parameters must be finite");
  } else {
    if (hi_.wcet != lo_.wcet) fail("LO task must keep C(HI) = C(LO) (Eq. 2)");
    if (!is_inf(hi_.period) && hi_.period < lo_.period)
      fail("LO task needs T(HI) >= T(LO) (Eq. 2)");
    if (!is_inf(hi_.deadline) && hi_.deadline < lo_.deadline)
      fail("LO task needs D(HI) >= D(LO) (Eq. 2)");
    if (is_inf(hi_.period) != is_inf(hi_.deadline))
      fail("termination requires both T(HI) and D(HI) infinite (Eq. 3)");
  }
  return issues;
}

namespace {

std::string collect_issues(const std::vector<McTask>& tasks) {
  std::string all_issues;
  for (const McTask& t : tasks) {
    for (const std::string& issue : t.validate()) {
      all_issues += issue;
      all_issues += "; ";
    }
  }
  return all_issues;
}

}  // namespace

TaskSet::TaskSet(std::vector<McTask> tasks) : tasks_(std::move(tasks)) {
  const std::string all_issues = collect_issues(tasks_);
  if (!all_issues.empty()) throw std::invalid_argument("invalid task set: " + all_issues);
}

Expected<TaskSet> TaskSet::create(std::vector<McTask> tasks) {
  const std::string all_issues = collect_issues(tasks);
  if (!all_issues.empty()) return Status::error("invalid task set: " + all_issues);
  TaskSet set;
  set.tasks_ = std::move(tasks);
  return set;
}

double TaskSet::utilization(Criticality chi, Mode mode) const {
  double u = 0.0;
  for (const McTask& t : tasks_)
    if (t.criticality() == chi) u += t.utilization(mode);
  return u;
}

double TaskSet::total_utilization(Mode mode) const { return rbs::total_utilization(tasks_, mode); }

Ticks TaskSet::total_hi_wcet() const { return rbs::total_hi_wcet(tasks_); }

std::size_t TaskSet::hi_count() const {
  std::size_t n = 0;
  for (const McTask& t : tasks_) n += t.is_hi() ? 1 : 0;
  return n;
}

double total_utilization(std::span<const McTask> tasks, Mode mode) {
  double lo_tasks = 0.0;
  double hi_tasks = 0.0;
  for (const McTask& t : tasks) (t.is_hi() ? hi_tasks : lo_tasks) += t.utilization(mode);
  return lo_tasks + hi_tasks;
}

Ticks total_hi_wcet(std::span<const McTask> tasks) {
  Ticks sum = 0;
  for (const McTask& t : tasks)
    if (!t.dropped_in_hi()) sum += t.wcet(Mode::HI);
  return sum;
}

std::string describe(const McTask& task) {
  std::ostringstream os;
  auto tick = [](Ticks t) { return is_inf(t) ? std::string("inf") : std::to_string(t); };
  os << task.name() << " [" << to_string(task.criticality()) << "]"
     << " C=(" << tick(task.wcet(Mode::LO)) << "," << tick(task.wcet(Mode::HI)) << ")"
     << " D=(" << tick(task.deadline(Mode::LO)) << "," << tick(task.deadline(Mode::HI)) << ")"
     << " T=(" << tick(task.period(Mode::LO)) << "," << tick(task.period(Mode::HI)) << ")";
  return os.str();
}

}  // namespace rbs
