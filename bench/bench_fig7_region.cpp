// Figure 7: schedulability regions under temporary processor speedup.
//
// For each grid point (U_HI, U_LO) -- U_HI = sum_HI C(HI)/T, U_LO =
// sum_LO C(LO)/T -- random task sets are generated in the +-0.025
// neighbourhood (gamma = 10, LO tasks terminated in HI mode, x minimal) and
// the fraction is reported that satisfies the paper's temporary-speedup
// budget: 2x speedup for no longer than 5 s, i.e.
//
//     LO-mode schedulable  AND  s_min <= 2  AND  Delta_R(2) <= 5 s.
//
// For comparison the no-speedup region (s_min <= 1) and the EDF-VD
// utilization-test baseline are printed as well.
//
// x policy: --x-policy util (default, the EDF-VD rule of [4]) or
// --x-policy exact (bisection over the exact demand test). With the exact
// policy x becomes tiny and nearly every LO-feasible point needs no speedup
// at all -- an interesting finding recorded in EXPERIMENTS.md; the paper's
// differentiated regions match the utilization rule.
//
// The campaign maps one item per (grid cell, set) triple over the
// rbs::Analyzer facade -- one fused sweep delivers s_min and Delta_R(2)
// together -- and gathers results in input order, so --jobs N output is
// byte-identical to the serial run.
//
// Fault tolerance (campaign/supervisor.hpp): `--checkpoint <path>` journals
// every finished item so a killed run resumes with `--resume` and reproduces
// the uninterrupted output byte for byte; `--item-deadline S` / `--retries N`
// arm the watchdog and the quarantine policy.
//
//   bench_fig7_region [--sets 30] [--step 0.1] [--seed 1] [--jobs N]
//                     [--x-policy util|exact] [--csv <dir>]
//                     [--checkpoint <path> [--resume]] [--item-deadline S]
//                     [--retries N]
#include "common.hpp"

#include <cmath>

#include "gen/rng.hpp"
#include "gen/taskgen.hpp"

namespace {

/// Verdicts of one random set at one grid cell.
struct Fig7Item {
  bool generated = false;  ///< generator hit the +-0.025 neighbourhood
  bool vd_ok = false;      ///< EDF-VD utilization test accepts
  bool plain_ok = false;   ///< s_min <= 1 (no speedup needed)
  bool speedup_ok = false; ///< s_min <= 2 and Delta_R(2) <= 5 s
};

/// Journal payload codec (see bench/common.hpp): four 0/1 flags. Fresh and
/// resumed items both round-trip through this form.
std::string encode_item(const Fig7Item& item) {
  return rbs::bench::encode_fields({item.generated ? 1.0 : 0.0, item.vd_ok ? 1.0 : 0.0,
                                    item.plain_ok ? 1.0 : 0.0, item.speedup_ok ? 1.0 : 0.0});
}

std::optional<Fig7Item> decode_item(const std::string& payload) {
  const auto fields = rbs::bench::decode_fields(payload, 4);
  if (!fields) return std::nullopt;
  Fig7Item item;
  item.generated = rbs::bench::decode_flag((*fields)[0]);
  item.vd_ok = rbs::bench::decode_flag((*fields)[1]);
  item.plain_ok = rbs::bench::decode_flag((*fields)[2]);
  item.speedup_ok = rbs::bench::decode_flag((*fields)[3]);
  return item;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"sets", "step"},
                     {bench::kCampaignFlags, bench::kXPolicyFlags, bench::kCheckpointFlags,
                      bench::kCsvFlags});
  const int sets_per_point = static_cast<int>(args.get_int("sets", 30));
  const double step = args.get_double("step", 0.1);
  const campaign::CampaignOptions campaign_options = bench::parse_campaign(args);
  const bench::XPolicy x_policy = bench::parse_x_policy(args, bench::XPolicy::kUtilization);
  bench::banner("Figure 7 (schedulability regions)",
                "Fraction of task sets schedulable with 2x speedup for <= 5 s, over\n"
                "the (U_HI, U_LO) plane; gamma = 10, LO tasks terminated. " +
                    std::to_string(sets_per_point) + " sets per point, " +
                    std::to_string(campaign_options.jobs) + " job(s).");

  constexpr double kMaxResetTicks = 50000.0;  // 5 s at 1 tick = 0.1 ms

  std::vector<double> grid;
  for (double u = step; u <= 0.96; u += step) grid.push_back(u);

  // One campaign item per (U_HI row, U_LO column, set index).
  const std::size_t per_cell = static_cast<std::size_t>(sets_per_point);
  const std::size_t n_items = grid.size() * grid.size() * per_cell;
  const bench::CheckpointConfig checkpoint = bench::parse_checkpoint(args);
  const Analyzer analyzer;
  const campaign::CampaignReport campaign_report = bench::run_checkpointed(
      checkpoint, "fig7", campaign_options, n_items,
      [&grid, &analyzer, per_cell, x_policy](std::size_t index, Rng& rng,
                                             const campaign::CancelToken& token) {
        Fig7Item item;
        const std::size_t cell = index / per_cell;
        RegionParams params;
        params.u_hi = grid[cell / grid.size()];
        params.u_lo = grid[cell % grid.size()];
        const auto skeleton = generate_region_set(params, rng);
        if (!skeleton) return encode_item(item);  // neighbourhood unreachable; not counted
        item.generated = true;
        item.vd_ok = edf_vd_schedulable(*skeleton).schedulable;
        const auto x_min = bench::min_x_under_policy(*skeleton, x_policy);
        if (!x_min) return encode_item(item);
        token.throw_if_cancelled();
        const TaskSet set = skeleton->materialize_terminating(*x_min);
        // One fused breakpoint sweep: the Theorem 2 certificate and the
        // Corollary 5 crossing at s = 2 from a single walk.
        const AnalysisReport report =
            analyzer.analyze(set, 2.0, {.speedup = true, .reset = true, .lo = false}).value();
        item.plain_ok = report.s_min <= 1.0;
        item.speedup_ok = report.s_min <= 2.0 && report.delta_r <= kMaxResetTicks;
        return encode_item(item);
      });
  const std::vector<Fig7Item> items =
      bench::gather_items<Fig7Item>(campaign_report, decode_item);

  auto csv = bench::open_csv(args, "fig7.csv");
  if (csv) csv->write_row({"u_hi", "u_lo", "pct_speedup", "pct_nospeedup", "pct_edfvd"});

  TextTable speedup_table, plain_table, vd_table;
  std::vector<std::string> header{"U_HI \\ U_LO"};
  for (double u : grid) header.push_back(TextTable::num(u, 2));
  speedup_table.set_header(header);
  plain_table.set_header(header);
  vd_table.set_header(header);

  double pct_at_085 = -1.0;
  for (std::size_t hi = 0; hi < grid.size(); ++hi) {
    const double u_hi = grid[hi];
    std::vector<std::string> row_s{TextTable::num(u_hi, 2)};
    std::vector<std::string> row_p{TextTable::num(u_hi, 2)};
    std::vector<std::string> row_v{TextTable::num(u_hi, 2)};
    for (std::size_t lo = 0; lo < grid.size(); ++lo) {
      const double u_lo = grid[lo];
      const std::size_t base = (hi * grid.size() + lo) * per_cell;
      int ok_speedup = 0, ok_plain = 0, ok_vd = 0, total = 0;
      for (std::size_t i = 0; i < per_cell; ++i) {
        const Fig7Item& item = items[base + i];
        if (!item.generated) continue;
        ++total;
        ok_vd += item.vd_ok;
        ok_plain += item.plain_ok;
        ok_speedup += item.speedup_ok;
      }
      // total == 0 means the generator cannot hit this neighbourhood at all
      // (e.g. U_HI below the smallest single-task u_hi at gamma = 10).
      const double pct_s = total ? 100.0 * ok_speedup / total : std::nan("");
      const double pct_p = total ? 100.0 * ok_plain / total : std::nan("");
      const double pct_v = total ? 100.0 * ok_vd / total : std::nan("");
      row_s.push_back(total ? TextTable::num(pct_s, 0) : "-");
      row_p.push_back(total ? TextTable::num(pct_p, 0) : "-");
      row_v.push_back(total ? TextTable::num(pct_v, 0) : "-");
      if (csv) csv->write_row_numeric({u_hi, u_lo, pct_s, pct_p, pct_v});
      if (std::abs(u_hi - 0.85) < 0.026 && std::abs(u_lo - 0.85) < 0.026)
        pct_at_085 = pct_s;  // only reported when the grid hits ~0.85 (step <= 0.05)
    }
    speedup_table.add_row(std::move(row_s));
    plain_table.add_row(std::move(row_p));
    vd_table.add_row(std::move(row_v));
  }

  std::cout << "% schedulable with 2x speedup, Delta_R <= 5 s:\n";
  speedup_table.print(std::cout);
  std::cout << "\n% schedulable with no speedup (s_min <= 1):\n";
  plain_table.print(std::cout);
  std::cout << "\n% accepted by the EDF-VD utilization test (baseline [4], no speedup):\n";
  vd_table.print(std::cout);

  if (pct_at_085 >= 0.0)
    std::cout << "\nAt U_HI = U_LO = 0.85: " << TextTable::num(pct_at_085, 0)
              << "% schedulable with temporary 2x speedup (paper: ~90%).\n";
  std::cout << "Temporary speedup greatly enlarges the 100%-schedulable region.\n";
  return 0;
}
