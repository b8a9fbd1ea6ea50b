// One HI-mode verdict: every consumer that asks "is speed s enough for this
// set?" reads the Analyzer facade's answer (AnalysisReport::hi_schedulable_at)
// rather than comparing s_min itself -- the full analysis and the decision
// question Analyzer::fits alike -- so all of them accept a speed on s_min up
// to rounding noise and all of them reject a speed clearly below it.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/analysis_storage.hpp"
#include "core/budget.hpp"
#include "core/dvfs.hpp"
#include "core/partition.hpp"
#include "core/resilience.hpp"
#include "core/speedup.hpp"
#include "gen/paper_examples.hpp"
#include "multi/resilience.hpp"

namespace rbs {
namespace {

/// Each consumer's verdict on `set` at HI-mode speed `s`, by name.
std::vector<std::pair<std::string, bool>> verdicts(const TaskSet& set, double s) {
  std::vector<std::pair<std::string, bool>> out;
  out.emplace_back("facade", Analyzer().analyze(set, s).value().hi_schedulable);
  out.emplace_back("hi_mode_schedulable", hi_mode_schedulable(set, s));
  constexpr double kNoBudget = std::numeric_limits<double>::infinity();
  out.emplace_back("fits",
                   Analyzer().fits({set, s, {}, {}}, kNoBudget).value().hi_schedulable);
  std::vector<McTask> tasks = set.tasks();
  AnalysisStorage storage;
  const FallbackFit fallback = find_fallback(tasks, s, kNoBudget, {}, storage);
  out.emplace_back("find_fallback", fallback.feasible && fallback.fallback.tier() == 0);

  PartitionOptions options;
  options.hi_speedup = s;
  out.emplace_back("partition_first_fit", partition_first_fit(set, 1, options).feasible);

  multi::MultiRequest request;
  request.set = set;
  request.assignment.emplace_back();
  for (std::size_t i = 0; i < set.size(); ++i) request.assignment[0].push_back(i);
  request.budgets = {CoreBudget{s, std::numeric_limits<double>::infinity()}};
  request.tolerance = 0;
  out.emplace_back("analyze_resilience",
                   multi::analyze_resilience(request).value().nominal_feasible);

  out.emplace_back("analyze_degraded", analyze_degraded(set, s).schedulable_unmodified);

  TurboEnvelope envelope;
  envelope.max_speedup = s;
  out.emplace_back("check_turbo_envelope", check_turbo_envelope(set, envelope).speed_ok);

  out.emplace_back("min_feasible_level",
                   min_feasible_level(set, FrequencyMenu::cubic({s})).feasible);
  return out;
}

TEST(VerdictBoundaryTest, EveryConsumerAgreesAtSMin) {
  const TaskSet set = table1_base();
  const double s_min = min_speedup_value(set);
  ASSERT_NEAR(s_min, 4.0 / 3.0, 1e-12);

  // Inside kSpeedTol of s_min: rounding noise, accepted everywhere.
  for (const auto& [name, ok] : verdicts(set, s_min * (1 - 1e-12)))
    EXPECT_TRUE(ok) << name << " rejects s_min * (1 - 1e-12)";
  // Clearly below s_min: rejected everywhere.
  for (const auto& [name, ok] : verdicts(set, s_min * (1 - 1e-6)))
    EXPECT_FALSE(ok) << name << " accepts s_min * (1 - 1e-6)";
}

}  // namespace
}  // namespace rbs
