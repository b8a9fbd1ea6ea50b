// Reconstruction of the paper's Table I example task set.
//
// The available rendering of the paper lost the numeric cells of Table I, but
// the prose pins the example down tightly:
//   * 1 HI task (tau_1) + 1 LO task (tau_2);
//   * without service degradation        s_min = 4/3          (Example 1);
//   * with  degradation D2(HI)=15, T2(HI)=20   s_min ~= 0.92  (Example 1);
//   * without degradation, at s = 2      Delta_R = 6          (Example 2);
//   * the set is LO-mode schedulable at unit speed.
//
// This tool exhaustively searches small integer parameters for sets matching
// all of those facts and prints every candidate. The set adopted by
// bench_table1 / the unit tests is the lexicographically smallest hit.
#include <cmath>
#include <cstdio>

#include "rbs.hpp"
#include "support/cli.hpp"

namespace {

bool approximately(double v, double target, double tol) { return std::fabs(v - target) <= tol; }

}  // namespace

int main(int argc, char** argv) {
  // The search takes no flags.
  if (const rbs::Status flags = rbs::CliArgs(argc, argv).check_flags({}); !flags) {
    std::fprintf(stderr, "%s\n", flags.message().c_str());
    return 2;
  }
  // Staged facade queries keep the original pruning order: the cheap LO-mode
  // gate first, then the certificate, then the crossing search.
  const rbs::Analyzer analyzer;
  int hits = 0;
  for (rbs::Ticks t1 = 2; t1 <= 16; ++t1)
    for (rbs::Ticks d1_hi = 2; d1_hi <= t1; ++d1_hi)
      for (rbs::Ticks d1_lo = 1; d1_lo < d1_hi; ++d1_lo)
        for (rbs::Ticks c1_lo = 1; c1_lo <= d1_lo; ++c1_lo)
          for (rbs::Ticks c1_hi = c1_lo; c1_hi <= d1_hi; ++c1_hi)
            for (rbs::Ticks t2 : {5, 10, 15, 20})
              for (rbs::Ticks d2 = 2; d2 <= t2; ++d2)
                for (rbs::Ticks c2 = 1; c2 <= d2; ++c2) {
                  if (d2 > 15) continue;  // degraded D2(HI)=15 must not shrink it
                  const rbs::McTask tau1 =
                      rbs::McTask::hi("tau1", c1_lo, c1_hi, d1_lo, d1_hi, t1);
                  const rbs::TaskSet base(
                      {tau1, rbs::McTask::lo("tau2", c2, d2, t2)});
                  if (!analyzer
                           .analyze(base, 1.0, {.speedup = false, .reset = false, .lo = true})
                           .value()
                           .lo_schedulable)
                    continue;

                  // One fused sweep delivers the certificate and Delta_R(2).
                  const rbs::AnalysisReport r =
                      analyzer.analyze(base, 2.0, {.speedup = true, .reset = true, .lo = false})
                          .value();
                  if (!rbs::approx_eq(r.s_min, 4.0 / 3.0, rbs::kSpeedTol)) continue;
                  if (!rbs::approx_eq(r.delta_r, 6.0, rbs::kSpeedTol)) continue;

                  const rbs::TaskSet degraded(
                      {tau1, rbs::McTask::lo("tau2", c2, d2, t2, /*hi_deadline=*/15,
                                             /*hi_period=*/20)});
                  const double s_deg =
                      analyzer
                          .analyze(degraded, 1.0, {.speedup = true, .reset = false, .lo = false})
                          .value()
                          .s_min;
                  if (!approximately(s_deg, 0.92, 0.006)) continue;

                  std::printf(
                      "HIT tau1: C=(%lld,%lld) D=(%lld,%lld) T=%lld | "
                      "tau2: C=%lld D=%lld T=%lld | s_base=%.6f s_deg=%.6f "
                      "dR(4/3)=%.4f dR(2)=%.4f\n",
                      static_cast<long long>(c1_lo), static_cast<long long>(c1_hi),
                      static_cast<long long>(d1_lo), static_cast<long long>(d1_hi),
                      static_cast<long long>(t1), static_cast<long long>(c2),
                      static_cast<long long>(d2), static_cast<long long>(t2), r.s_min,
                      s_deg,
                      analyzer
                          .analyze(base, 4.0 / 3.0,
                                   {.speedup = false, .reset = true, .lo = false})
                          .value()
                          .delta_r,
                      r.delta_r);
                  if (++hits >= 200) {
                    std::puts("...stopping after 200 hits");
                    return 0;
                  }
                }
  std::printf("%d hit(s)\n", hits);
  return 0;
}
