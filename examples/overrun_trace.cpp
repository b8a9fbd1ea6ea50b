// Visualising one overrun episode: an ASCII Gantt chart of the paper's
// Table I example going through LO mode -> overrun -> HI mode at 2x speed ->
// idle instant -> reset to LO mode.
//
// Usage: overrun_trace [--speed 2.0] [--horizon 40]
#include <cmath>
#include <iostream>
#include <string>

#include "gen/paper_examples.hpp"
#include "rbs.hpp"
#include "sim/simulate.hpp"
#include "support/cli.hpp"

namespace {

// One row of the Gantt chart: 4 character cells per time tick.
std::string gantt_row(const rbs::sim::Trace& trace, int task, double horizon) {
  const int cells_per_tick = 4;
  const auto width = static_cast<std::size_t>(horizon * cells_per_tick);
  std::string row(width, '.');
  for (const rbs::sim::TraceSegment& seg : trace.segments) {
    if (seg.task_index != task) continue;
    const auto from = static_cast<std::size_t>(std::llround(seg.start * cells_per_tick));
    const auto to = static_cast<std::size_t>(std::llround(seg.end * cells_per_tick));
    const char glyph = seg.mode == rbs::Mode::HI ? '#' : '=';
    for (std::size_t i = from; i < to && i < width; ++i) row[i] = glyph;
  }
  return row;
}

std::string mode_row(const rbs::sim::Trace& trace, double horizon) {
  const int cells_per_tick = 4;
  const auto width = static_cast<std::size_t>(horizon * cells_per_tick);
  std::string row(width, 'L');
  for (const rbs::sim::TraceSegment& seg : trace.segments) {
    if (seg.mode != rbs::Mode::HI) continue;
    const auto from = static_cast<std::size_t>(std::llround(seg.start * cells_per_tick));
    const auto to = static_cast<std::size_t>(std::llround(seg.end * cells_per_tick));
    for (std::size_t i = from; i < to && i < width; ++i) row[i] = 'H';
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  const double speed = args.get_double("speed", 2.0);
  const double horizon = args.get_double("horizon", 40.0);

  const TaskSet set = table1_base();
  std::cout << "Table I example, HI-mode speedup s = " << speed << "\n";
  for (const McTask& t : set) std::cout << "  " << describe(t) << "\n";
  std::cout << "\n('=' executing in LO mode, '#' executing in HI mode at " << speed
            << "x, '.' not executing; 1 column = 0.25 ticks)\n\n";

  sim::SimConfig cfg;
  cfg.horizon = horizon;
  cfg.hi_speed = speed;
  cfg.demand.overrun_probability = 1.0;  // force the overrun scenario
  cfg.record_trace = true;
  const sim::SimMetrics r = sim::Simulator().run(set, cfg).value().metrics;

  for (std::size_t i = 0; i < set.size(); ++i)
    std::cout << set[i].name() << "  |" << gantt_row(r.trace, static_cast<int>(i), horizon)
              << "|\n";
  std::cout << "mode  |" << mode_row(r.trace, horizon) << "|\n\n";

  std::cout << "events:\n";
  for (const sim::TraceEvent& e : r.trace.events) {
    std::cout << "  t=" << e.time << "\t" << sim::to_string(e.kind);
    if (e.task_index >= 0) std::cout << "\t" << set[static_cast<std::size_t>(e.task_index)].name();
    std::cout << "\n";
  }

  std::cout << "\nsummary: " << r.mode_switches << " mode switches, "
            << r.misses.size() << " deadline misses, longest HI-mode dwell "
            << r.max_hi_dwell() << " ticks (analytic bound "
            << resetting_time_value(set, speed) << ")\n";
  return 0;
}
