// Randomized cross-validation between independently implemented analyses:
// DCPL-materialised sets vs the generic analysis, and the shipped FMS
// workload file.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "cache/waymodel.hpp"
#include "core/edf.hpp"
#include "core/reset.hpp"
#include "core/speedup.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "support/taskset_io.hpp"

namespace rbs {
namespace {

class DcplCrossTest : public testing::TestWithParam<int> {};

TEST_P(DcplCrossTest, GreedyNeverWorseAndMonotoneInWays) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 9000);
  std::vector<CacheTaskSpec> specs;
  WayAllocation a_lo;
  const int ways = 12;
  for (int i = 0; i < 5; ++i) {
    const bool hi = i < 2;
    const Ticks period = rng.uniform_int(40, 400);
    const auto c_lo = std::max<Ticks>(
        1, static_cast<Ticks>(std::llround(rng.uniform(0.05, 0.15) *
                                           static_cast<double>(period))));
    const auto c_hi =
        std::min(period, static_cast<Ticks>(std::llround(2.0 * static_cast<double>(c_lo))));
    CacheTaskSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.criticality = hi ? Criticality::HI : Criticality::LO;
    spec.period = period;
    spec.lo_curve = WcetCurve::exponential(c_lo, rng.uniform(0.2, 1.2), 3.0, ways);
    if (hi) spec.hi_curve = WcetCurve::exponential(c_hi, rng.uniform(0.2, 1.2), 3.0, ways);
    specs.push_back(std::move(spec));
    a_lo.push_back(2);
  }

  WayAllocation static_hi(specs.size(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (specs[i].criticality == Criticality::HI) static_hi[i] = a_lo[i];
  const double s_static = min_speedup_value(materialize_cache_set(specs, a_lo, static_hi, 0.6));

  const CachePlanResult small = greedy_hi_allocation(specs, a_lo, ways, 0.6);
  EXPECT_LE(small.s_min, s_static + 1e-12);
  EXPECT_NEAR(small.s_min, min_speedup_value(small.set), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcplCrossTest, testing::Range(1, 9));

TEST(ShippedWorkloadTest, FmsFileParsesAndCertifies) {
  // The test may run from the source root, build/, or build/tests/.
  std::variant<TaskSet, ParseError> parsed = ParseError{};
  for (const char* prefix : {"", "../", "../../"}) {
    parsed = read_task_set_file(std::string(prefix) + "examples/data/fms.tasks");
    if (std::holds_alternative<TaskSet>(parsed)) break;
  }
  if (!std::holds_alternative<TaskSet>(parsed))
    GTEST_SKIP() << "examples/data/fms.tasks not reachable from test cwd";
  const TaskSet& fms = std::get<TaskSet>(parsed);
  EXPECT_EQ(fms.size(), 11u);
  EXPECT_TRUE(lo_mode_schedulable(fms));
  EXPECT_LT(min_speedup_value(fms), 2.0);
  EXPECT_LT(resetting_time_value(fms, 2.0), 3000.0);  // < 3 s at 1 ms ticks
}

}  // namespace
}  // namespace rbs
