// Figure 6: extensive experiments on synthesized task sets.
//
// Task generation per the paper's caption: minimum inter-arrival times in
// [2 ms, 2 s] (1 tick = 0.1 ms), per-task LO utilization in [0.01, 0.2],
// gamma = C(HI)/C(LO) in [1, 3], P(HI) = 1/2; sets generated up to a target
// system utilization U_bound; x set to the minimum preserving LO-mode
// schedulability.
//
//  (a) box-whisker of the required speedup s_min vs U_bound (y = 2);
//  (b) median s_min vs U_bound for several degradation factors y;
//  (c) box-whisker of the resetting time Delta_R vs U_bound (y = 2, s = 3);
//  (d) median Delta_R vs U_bound for several (s, y) combinations.
//
// Paper shape checks: max s_min < ~3.3 at U=0.9 with median ~1.4; s_min <= 1
// for U <= 0.5; resetting times of a few hundred ms median, < ~3 s max.
//
// x policy: --x-policy util (default; the EDF-VD rule of [4], consistent
// with the paper's magnitudes) or --x-policy exact (bisection over the exact
// demand test; yields smaller x and smaller required speedups).
//
// The campaign maps one item per (U_bound, set) pair over the rbs::Analyzer
// facade via campaign::Supervisor: each item owns a private RNG stream
// derived from --seed, so --jobs 8 output is byte-identical to --jobs 1.
//
// Fault tolerance (campaign/supervisor.hpp): `--checkpoint <path>` journals
// every finished item so a killed run resumes with `--resume` and reproduces
// the uninterrupted output byte for byte; `--item-deadline S` / `--retries N`
// arm the watchdog and the quarantine policy.
//
//   bench_fig6_sim [--sets 200] [--seed 1] [--jobs N] [--x-policy util|exact]
//                  [--csv <dir>] [--checkpoint <path> [--resume]]
//                  [--item-deadline S] [--retries N]
#include "common.hpp"

#include <array>
#include <cmath>
#include <map>

namespace {

constexpr double kTicksPerMs = 10.0;  // 1 tick = 0.1 ms

constexpr std::array<double, 7> kUBounds = {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
constexpr std::array<double, 3> kYs = {1.5, 2.0, 3.0};
constexpr std::array<double, 2> kSpeeds = {2.0, 3.0};

/// Everything one campaign item (one random set at one U_bound) learns.
struct Fig6Item {
  bool generated = false;           ///< acceptance window hit
  bool feasible = false;            ///< LO-mode schedulable x exists
  std::array<double, kYs.size()> s_min{};                         ///< per y
  std::array<std::array<double, kSpeeds.size()>, kYs.size()> delta_r{};  ///< per (y, s)
};

/// Journal payload codec: 2 status flags + 3 s_min + 3x2 Delta_R doubles.
/// Both the fresh and the resumed path round-trip items through this string
/// form, so the aggregated output never depends on which path produced a row.
constexpr std::size_t kFig6Fields = 2 + kYs.size() + kYs.size() * kSpeeds.size();

std::string encode_item(const Fig6Item& item) {
  std::vector<double> fields{item.generated ? 1.0 : 0.0, item.feasible ? 1.0 : 0.0};
  for (double s : item.s_min) fields.push_back(s);
  for (const auto& per_y : item.delta_r)
    for (double d : per_y) fields.push_back(d);
  return rbs::bench::encode_fields(fields);
}

std::optional<Fig6Item> decode_item(const std::string& payload) {
  const auto fields = rbs::bench::decode_fields(payload, kFig6Fields);
  if (!fields) return std::nullopt;
  Fig6Item item;
  std::size_t at = 0;
  item.generated = rbs::bench::decode_flag((*fields)[at++]);
  item.feasible = rbs::bench::decode_flag((*fields)[at++]);
  for (double& s : item.s_min) s = (*fields)[at++];
  for (auto& per_y : item.delta_r)
    for (double& d : per_y) d = (*fields)[at++];
  return item;
}

std::string box_row_label(double u) { return rbs::TextTable::num(u, 1); }

void print_box(rbs::TextTable& table, double u, const rbs::BoxWhisker& b, double scale) {
  table.add_row({box_row_label(u), rbs::TextTable::num(b.min / scale, 3),
                 rbs::TextTable::num(b.q1 / scale, 3), rbs::TextTable::num(b.median / scale, 3),
                 rbs::TextTable::num(b.q3 / scale, 3), rbs::TextTable::num(b.max / scale, 3),
                 rbs::TextTable::num(static_cast<long long>(b.outliers.size()))});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"sets"},
                     {bench::kCampaignFlags, bench::kXPolicyFlags, bench::kCheckpointFlags,
                      bench::kCsvFlags});
  const int sets_per_point = static_cast<int>(args.get_int("sets", 200));
  const campaign::CampaignOptions campaign_options = bench::parse_campaign(args);
  const bench::XPolicy x_policy = bench::parse_x_policy(args, bench::XPolicy::kUtilization);
  bench::banner("Figure 6 (synthesized task sets)",
                "Distributions of the required speedup and the resetting time across\n"
                "random task sets (" +
                    std::to_string(sets_per_point) + " per utilization point, " +
                    std::to_string(campaign_options.jobs) + " job(s)).");

  // One campaign item per (U_bound, set index); gathered in input order, so
  // the aggregation below is independent of the worker count. The supervisor
  // journals each item's encoded row when --checkpoint is given.
  const bench::CheckpointConfig checkpoint = bench::parse_checkpoint(args);
  const Analyzer analyzer;
  const std::size_t n_items = kUBounds.size() * static_cast<std::size_t>(sets_per_point);
  const campaign::CampaignReport report = bench::run_checkpointed(
      checkpoint, "fig6", campaign_options, n_items,
      [&analyzer, sets_per_point, x_policy](std::size_t index, Rng& rng,
                                            const campaign::CancelToken& token) {
        Fig6Item item;
        GenParams params;
        params.u_bound = kUBounds[index / static_cast<std::size_t>(sets_per_point)];
        const auto skeleton = bench::generate_with_retry(params, rng);
        if (!skeleton) return encode_item(item);
        item.generated = true;
        const auto x_min = bench::min_x_under_policy(*skeleton, x_policy);
        if (!x_min) return encode_item(item);
        item.feasible = true;
        for (std::size_t yi = 0; yi < kYs.size(); ++yi) {
          token.throw_if_cancelled();
          const TaskSet set = skeleton->materialize(*x_min, kYs[yi]);
          // One fused sweep yields s_min and Delta_R at the first speed; the
          // remaining speeds only need the crossing search.
          const AnalysisReport first =
              analyzer.analyze(set, kSpeeds[0], {.speedup = true, .reset = true, .lo = false})
                  .value();
          item.s_min[yi] = first.s_min;
          item.delta_r[yi][0] = first.delta_r;
          for (std::size_t si = 1; si < kSpeeds.size(); ++si)
            item.delta_r[yi][si] =
                analyzer.analyze(set, kSpeeds[si], {.speedup = false, .reset = true, .lo = false})
                    .value()
                    .delta_r;
        }
        return encode_item(item);
      });
  const std::vector<Fig6Item> items = bench::gather_items<Fig6Item>(report, decode_item);

  // samples[u] -> s_min list (y = 2); reset[u] -> Delta_R list (y = 2, s = 3)
  std::map<double, std::vector<double>> smin_by_u;
  std::map<double, std::map<double, std::vector<double>>> smin_by_u_y;
  std::map<double, std::vector<double>> reset_by_u;
  std::map<double, std::map<std::pair<double, double>, std::vector<double>>> reset_by_u_sy;
  int infeasible_lo = 0, missed_window = 0;
  for (std::size_t index = 0; index < items.size(); ++index) {
    const Fig6Item& item = items[index];
    const double u = kUBounds[index / static_cast<std::size_t>(sets_per_point)];
    if (!item.generated) {
      ++missed_window;
      continue;
    }
    if (!item.feasible) {
      ++infeasible_lo;
      continue;
    }
    for (std::size_t yi = 0; yi < kYs.size(); ++yi) {
      const double y = kYs[yi];
      smin_by_u_y[u][y].push_back(item.s_min[yi]);
      if (approx_eq(y, 2.0, kSpeedTol)) {
        smin_by_u[u].push_back(item.s_min[yi]);
        reset_by_u[u].push_back(item.delta_r[yi][1]);  // s = 3
      }
      for (std::size_t si = 0; si < kSpeeds.size(); ++si)
        reset_by_u_sy[u][{kSpeeds[si], y}].push_back(item.delta_r[yi][si]);
    }
  }

  // ---- (a) ----
  std::cout << "(a) box-whisker of s_min vs U_bound (y = 2)\n";
  TextTable ta;
  ta.set_header({"U_bound", "min", "q1", "median", "q3", "max", "#outliers"});
  auto csv_a = bench::open_csv(args, "fig6a.csv");
  if (csv_a) csv_a->write_row({"u_bound", "min", "q1", "median", "q3", "max"});
  for (double u : kUBounds) {
    const BoxWhisker b = box_whisker(smin_by_u[u]);
    print_box(ta, u, b, 1.0);
    if (csv_a) csv_a->write_row_numeric({u, b.min, b.q1, b.median, b.q3, b.max});
  }
  ta.print(std::cout);
  {
    const BoxWhisker b09 = box_whisker(smin_by_u[0.9]);
    const BoxWhisker b05 = box_whisker(smin_by_u[0.5]);
    std::cout << "\nshape checks: max s_min @U=0.9 = " << TextTable::num(b09.max, 2)
              << " (paper < 3.3), median @U=0.9 = " << TextTable::num(b09.median, 2)
              << " (paper ~1.4), max @U<=0.5 = " << TextTable::num(b05.max, 2)
              << " (paper <= 1)\n\n";
  }

  // ---- (b) ----
  std::cout << "(b) median s_min vs U_bound, degradation impact\n";
  TextTable tb;
  tb.set_header({"U_bound", "y=1.5", "y=2", "y=3"});
  auto csv_b = bench::open_csv(args, "fig6b.csv");
  if (csv_b) csv_b->write_row({"u_bound", "y1.5", "y2", "y3"});
  for (double u : kUBounds) {
    std::vector<std::string> row{box_row_label(u)};
    std::vector<double> csv_row{u};
    for (double y : kYs) {
      const double med = median(smin_by_u_y[u][y]);
      row.push_back(TextTable::num(med, 3));
      csv_row.push_back(med);
    }
    tb.add_row(std::move(row));
    if (csv_b) csv_b->write_row_numeric(csv_row);
  }
  tb.print(std::cout);
  std::cout << "\nMore degradation (larger y) lowers the required speedup.\n\n";

  // ---- (c) ----
  std::cout << "(c) box-whisker of Delta_R vs U_bound (y = 2, s = 3), in ms\n";
  TextTable tc;
  tc.set_header({"U_bound", "min", "q1", "median", "q3", "max", "#outliers"});
  auto csv_c = bench::open_csv(args, "fig6c.csv");
  if (csv_c) csv_c->write_row({"u_bound", "min_ms", "q1_ms", "median_ms", "q3_ms", "max_ms"});
  for (double u : kUBounds) {
    const BoxWhisker b = box_whisker(reset_by_u[u]);
    print_box(tc, u, b, kTicksPerMs);
    if (csv_c)
      csv_c->write_row_numeric({u, b.min / kTicksPerMs, b.q1 / kTicksPerMs,
                                b.median / kTicksPerMs, b.q3 / kTicksPerMs,
                                b.max / kTicksPerMs});
  }
  tc.print(std::cout);
  {
    const BoxWhisker b09 = box_whisker(reset_by_u[0.9]);
    std::cout << "\nshape checks @U=0.9: max = " << TextTable::num(b09.max / kTicksPerMs, 1)
              << " ms (paper < 2600 ms), median = "
              << TextTable::num(b09.median / kTicksPerMs, 1) << " ms (paper ~678.6 ms)\n\n";
  }

  // ---- (d) ----
  std::cout << "(d) median Delta_R vs U_bound for (s, y) combinations, in ms\n";
  TextTable td;
  td.set_header({"U_bound", "s=2,y=1.5", "s=2,y=2", "s=2,y=3", "s=3,y=1.5", "s=3,y=2",
                 "s=3,y=3"});
  auto csv_d = bench::open_csv(args, "fig6d.csv");
  if (csv_d) csv_d->write_row({"u_bound", "s2y1.5", "s2y2", "s2y3", "s3y1.5", "s3y2", "s3y3"});
  for (double u : kUBounds) {
    std::vector<std::string> row{box_row_label(u)};
    std::vector<double> csv_row{u};
    for (double s : kSpeeds)
      for (double y : kYs) {
        const double med = median(reset_by_u_sy[u][{s, y}]) / kTicksPerMs;
        row.push_back(TextTable::num(med, 1));
        csv_row.push_back(med);
      }
    td.add_row(std::move(row));
    if (csv_d) csv_d->write_row_numeric(csv_row);
  }
  td.print(std::cout);
  std::cout << "\nBoth more degradation and more speedup shorten the resetting time.\n";
  if (infeasible_lo > 0)
    std::cout << "(" << infeasible_lo << " generated sets were not LO-mode schedulable and "
              << "were skipped.)\n";
  if (missed_window > 0)
    std::cout << "(" << missed_window << " items missed the generator acceptance window.)\n";
  return 0;
}
